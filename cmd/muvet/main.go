// Command muvet is the repo's static contract checker: a vet tool
// running the six muvet analyzers (nodeterm, inboxalias, hotalloc,
// stepblock, stepalias, ctxretain) over the engine, reference engine,
// record layer and harness. See
// internal/tools/muvet for the contracts and the //muvet:allow /
// //muvet:hotpath annotation grammar.
//
// Usage:
//
//	muvet ./...              analyze packages (re-execs go vet -vettool)
//	muvet -list              print the analyzers
//	go vet -vettool=$(which muvet) ./...
//
// The tool speaks the `go vet -vettool` unit-checker protocol directly
// (-V=full version probe, -flags query, single *.cfg argument), built
// on the standard library only: the type checker imports dependency
// packages from the export-data files the go command lists in the cfg.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"

	"mucongest/internal/tools/muvet"
	"mucongest/internal/tools/muvet/analysis"
)

func main() {
	args := os.Args[1:]
	switch {
	case len(args) == 1 && strings.HasPrefix(args[0], "-V"):
		// go vet's version probe; the output is part of its cache key.
		line, err := versionLine()
		if err != nil {
			fmt.Fprintf(os.Stderr, "muvet: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(line)
	case len(args) == 1 && args[0] == "-flags":
		// go vet's flag inventory probe. muvet takes no vet-level flags.
		fmt.Println("[]")
	case len(args) == 1 && args[0] == "-list":
		for _, a := range muvet.Suite() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		if err := runUnit(args[0]); err != nil {
			fmt.Fprintf(os.Stderr, "muvet: %v\n", err)
			os.Exit(1)
		}
	default:
		// Convenience mode: `muvet ./...` re-execs the go command with
		// this binary as the vet tool, which handles package loading,
		// export data and caching.
		self, err := os.Executable()
		if err != nil {
			fmt.Fprintf(os.Stderr, "muvet: %v\n", err)
			os.Exit(1)
		}
		cmd := exec.Command("go", append([]string{"vet", "-vettool=" + self}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			if ee, ok := err.(*exec.ExitError); ok {
				os.Exit(ee.ExitCode())
			}
			fmt.Fprintf(os.Stderr, "muvet: %v\n", err)
			os.Exit(1)
		}
	}
}

// versionLine answers go vet's -V=full probe in the shape the go
// command parses for a devel tool, "muvet version devel buildID=<id>",
// with the sha256 of this executable as the id (x/tools' analysisflags
// does the same). vet keys its action cache on the id, so rebuilding
// the analyzers retires every cached verdict of the old binary.
func versionLine() (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(self)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("muvet version devel buildID=%x", sha256.Sum256(data)), nil
}

// vetConfig is the JSON the go command writes for each package when
// invoking a -vettool — the same layout x/tools' unitchecker reads.
// Unused fields are accepted and ignored.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runUnit analyzes one package from its vet cfg file.
func runUnit(cfgPath string) error {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return fmt.Errorf("parsing %s: %v", cfgPath, err)
	}
	// muvet exports no analysis facts, but the go command expects the
	// vetx output to exist for caching; write it first so even
	// diagnostic-bearing exits leave a valid (empty) facts file.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return err
		}
	}
	if cfg.VetxOnly {
		return nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil
			}
			return err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil
	}

	tc := &types.Config{
		Importer: &exportImporter{cfg: &cfg, fset: fset, pkgs: map[string]*types.Package{}},
		Error:    func(error) {}, // collect nothing; first error returned below
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil
		}
		return fmt.Errorf("typechecking %s: %v", cfg.ImportPath, err)
	}

	var diags []analysis.Diagnostic
	importPath := cfg.ImportPath
	if i := strings.Index(importPath, " ["); i >= 0 {
		importPath = importPath[:i]
	}
	for _, a := range muvet.Suite() {
		name := a.Name
		pass := &analysis.Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			ImportPath: importPath,
			TypesInfo:  info,
			Report: func(d analysis.Diagnostic) {
				if d.Category == "" {
					d.Category = name
				}
				diags = append(diags, d)
			},
		}
		if err := a.Run(pass); err != nil {
			return fmt.Errorf("%s: %v", a.Name, err)
		}
	}
	if len(diags) == 0 {
		return nil
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s (muvet/%s)\n", fset.Position(d.Pos), d.Message, d.Category)
	}
	os.Exit(2)
	return nil
}

// exportImporter resolves imports from the export-data files the go
// command hands the vet tool (cfg.PackageFile), applying the vendor /
// test-variant translation in cfg.ImportMap. It implements
// types.ImporterFrom by delegating payload decoding to the toolchain's
// own gc importer.
type exportImporter struct {
	cfg  *vetConfig
	fset *token.FileSet
	pkgs map[string]*types.Package
	gc   types.ImporterFrom
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	return ei.ImportFrom(path, ei.cfg.Dir, 0)
}

func (ei *exportImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	canonical := path
	if mapped, ok := ei.cfg.ImportMap[path]; ok {
		canonical = mapped
	}
	if pkg, ok := ei.pkgs[canonical]; ok {
		return pkg, nil
	}
	if ei.gc == nil {
		lookup := func(p string) (io.ReadCloser, error) {
			file, ok := ei.cfg.PackageFile[p]
			if !ok {
				return nil, fmt.Errorf("no export data for %q", p)
			}
			return os.Open(file)
		}
		ei.gc = importer.ForCompiler(ei.fset, "gc", lookup).(types.ImporterFrom)
	}
	pkg, err := ei.gc.ImportFrom(canonical, dir, 0)
	if err != nil {
		return nil, err
	}
	ei.pkgs[canonical] = pkg
	return pkg, nil
}
