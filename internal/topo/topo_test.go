package topo

import (
	"math/rand"
	"strings"
	"testing"
)

// TestCanonicalRoundTrip pins the spec syntax contract: for every
// family, the bare name parses, its canonical String re-parses to the
// same canonical form, and explicit arguments survive the round trip.
func TestCanonicalRoundTrip(t *testing.T) {
	for _, f := range Families() {
		sp, err := Parse(f.Name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", f.Name, err)
		}
		canon := sp.String()
		// Canonical form names every declared parameter.
		for _, p := range f.Params {
			if !strings.Contains(canon, p.Name+"=") {
				t.Fatalf("%s: canonical %q omits parameter %s", f.Name, canon, p.Name)
			}
		}
		again, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(canonical %q): %v", canon, err)
		}
		if again.String() != canon {
			t.Fatalf("%s: canonical form unstable: %q -> %q", f.Name, canon, again.String())
		}
	}
}

func TestParseExplicitArgs(t *testing.T) {
	sp, err := Parse("torus: rows=4 , cols=5")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Args["rows"] != "4" || sp.Args["cols"] != "5" {
		t.Fatalf("args %v", sp.Args)
	}
	if got, want := sp.String(), "torus:rows=4,cols=5"; got != want {
		t.Fatalf("String %q want %q", got, want)
	}
	// Partial args keep defaults for the rest.
	sp = MustParse("gnp:p=0.3")
	if got, want := sp.String(), "gnp:n=48,p=0.3,conn=0"; got != want {
		t.Fatalf("String %q want %q", got, want)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ spec, wantSub string }{
		{"", "unknown family"},
		{"mobius", "unknown family"},
		{"mobius:n=4", "unknown family"},
		{"torus:rows", "malformed argument"},
		{"torus:rows=", "malformed argument"},
		{"torus:=4", "malformed argument"},
		{"torus:sides=4", "no parameter"},
		{"torus:rows=4,rows=5", "duplicate argument"},
	}
	for _, c := range cases {
		if _, err := Parse(c.spec); err == nil {
			t.Fatalf("Parse(%q) accepted", c.spec)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Fatalf("Parse(%q) error %q, want substring %q", c.spec, err, c.wantSub)
		}
	}
}

// TestBuildValueErrors pins that a spec fails every view with one
// error: the family's Check runs before Estimate, BuildTopology and
// Build alike. Three kinds of entry fail only where the values cannot
// tell: a sampler that gives up passes Estimate and fails both builds
// with the same error, a cap of complete or hypercube fails Build
// alone, and a graph over the build budget fails Build, and
// BuildTopology too unless the family has an implicit topology.
func TestBuildValueErrors(t *testing.T) {
	cases := []struct{ spec, why string }{
		{"gnp:n=many", "check"},     // non-integer
		{"gnp:p=half", "check"},     // non-number
		{"gnp:conn=maybe", "check"}, // non-boolean
		{"gnp:p=1.5", "check"},      // out of range
		{"gnp:n=0", "check"},        // out of range
		{"gnp:n=4,p=0,conn=1", "check"},
		{"cycliques:k=2", "check"},
		{"regular:n=5,d=3", "check"}, // n·d odd
		{"regular:n=4,d=4", "check"}, // d ≥ n
		{"torus:rows=2", "check"},
		// Node counts that are products of parameters: values whose
		// product wraps int64 (or int32), then the first count past
		// maxNodes = 2³¹−1.
		{"grid:rows=4294967296,cols=4294967296", "check"},
		{"grid:rows=2147483648,cols=1", "check"},
		{"torus:rows=4294967296,cols=4294967296", "check"},
		{"torus:rows=3,cols=715827883", "check"},
		{"barbell:size=4611686018427387904,p=0", "check"},
		{"barbell:size=1073741824,p=0", "check"},
		{"cycliques:k=4294967296,size=4294967296", "check"},
		{"cycliques:k=4,size=536870912", "check"},
		{"hypercube:dim=0", "check"},
		{"hypercube:dim=21", "cap"},
		{"powerlaw:n=3,attach=3", "check"},
		{"cycle:n=2", "check"},
		{"complete:n=0", "check"},              // out of range
		{"complete:n=4096", "cap"},             // beyond the explicit-adjacency cap
		{"gnp:n=40,p=0.001,conn=1", "sampler"}, // never samples a connected graph
		{"regular:n=10,d=9", "sampler"},        // switch repair does not converge
		{"path:n=2000000000", "budget"},        // ~30 GiB of flat graph
		{"gnp:n=65536,p=1", "budget"},          // ~16 GiB below mugraph's compact threshold
		{"grid:rows=40000,cols=40000", "budget"},
	}
	for _, c := range cases {
		sp, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v (expected a value error)", c.spec, err)
		}
		_, estErr := sp.Estimate()
		_, topoErr := sp.BuildTopology(rand.New(rand.NewSource(1)))
		_, buildErr := sp.Build(rand.New(rand.NewSource(1)))
		if buildErr == nil {
			t.Errorf("Build(%q) accepted", c.spec)
			continue
		}
		if !strings.HasPrefix(buildErr.Error(), "topo: ") {
			t.Errorf("Build(%q) error %q lacks the package prefix", c.spec, buildErr)
		}
		switch c.why {
		case "budget":
			if estErr != nil || !strings.Contains(buildErr.Error(), "over the 4.0 GiB build budget") {
				t.Errorf("%q: Estimate error %v, Build error %v; want Estimate to pass and Build to fail the budget", c.spec, estErr, buildErr)
			}
			est, _ := sp.Estimate()
			if est.Repr == "implicit" && topoErr != nil {
				t.Errorf("%q: BuildTopology error %v; want the implicit topology", c.spec, topoErr)
			}
			if est.Repr != "implicit" && (topoErr == nil || topoErr.Error() != buildErr.Error()) {
				t.Errorf("%q: BuildTopology error %v, Build error %v; want the same", c.spec, topoErr, buildErr)
			}
		case "cap":
			if estErr != nil || topoErr != nil {
				t.Errorf("%q: Estimate error %v, BuildTopology error %v; want both to pass", c.spec, estErr, topoErr)
			}
		case "sampler":
			if estErr != nil {
				t.Errorf("Estimate(%q) error %v; want it to pass", c.spec, estErr)
			}
			if topoErr == nil || topoErr.Error() != buildErr.Error() {
				t.Errorf("%q: BuildTopology error %v, Build error %v; want the same", c.spec, topoErr, buildErr)
			}
			if !strings.Contains(buildErr.Error(), sp.String()) {
				t.Errorf("Build(%q) error %q does not name the canonical spec", c.spec, buildErr)
			}
		default:
			if estErr == nil || estErr.Error() != buildErr.Error() ||
				topoErr == nil || topoErr.Error() != buildErr.Error() {
				t.Errorf("%q: Estimate error %v, BuildTopology error %v, Build error %v; want the same", c.spec, estErr, topoErr, buildErr)
			}
		}
	}
}

// TestBuildEveryFamilyDefault builds every family at its defaults: no
// errors, correct node counts, deterministic for a fixed seed.
func TestBuildEveryFamilyDefault(t *testing.T) {
	for _, f := range Families() {
		sp := MustParse(f.Name)
		g, err := sp.Build(rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if g.N() < 1 {
			t.Fatalf("%s: empty graph", f.Name)
		}
		h, err := sp.Build(rand.New(rand.NewSource(3)))
		if err != nil {
			t.Fatal(err)
		}
		ge, he := g.Edges(), h.Edges()
		if len(ge) != len(he) {
			t.Fatalf("%s: nondeterministic edge count %d vs %d", f.Name, len(ge), len(he))
		}
		for i := range ge {
			if ge[i] != he[i] {
				t.Fatalf("%s: nondeterministic edge %d: %v vs %v", f.Name, i, ge[i], he[i])
			}
		}
	}
}

func TestBuildShapes(t *testing.T) {
	rng := func() *rand.Rand { return rand.New(rand.NewSource(5)) }
	g, err := MustParse("grid:rows=3,cols=4").Build(rng())
	if err != nil || g.N() != 12 || g.M() != 3*3+4*2 {
		t.Fatalf("grid: n=%d m=%d err=%v", g.N(), g.M(), err)
	}
	g, err = MustParse("torus:rows=3,cols=3").Build(rng())
	if err != nil || g.N() != 9 || g.M() != 18 || g.MaxDegree() != 4 {
		t.Fatalf("torus: n=%d m=%d Δ=%d err=%v", g.N(), g.M(), g.MaxDegree(), err)
	}
	g, err = MustParse("hypercube:dim=4").Build(rng())
	if err != nil || g.N() != 16 || g.M() != 32 || g.Diameter() != 4 {
		t.Fatalf("hypercube: n=%d m=%d D=%d err=%v", g.N(), g.M(), g.Diameter(), err)
	}
	g, err = MustParse("powerlaw:n=40,attach=2").Build(rng())
	if err != nil || g.N() != 40 || !g.Connected() {
		t.Fatalf("powerlaw: n=%d connected=%v err=%v", g.N(), g.Connected(), err)
	}
	g, err = MustParse("gnp:n=30,p=0.2,conn=1").Build(rng())
	if err != nil || !g.Connected() {
		t.Fatalf("gnp conn: connected=%v err=%v", g.Connected(), err)
	}
	g, err = MustParse("complete:n=9").Build(rng())
	if err != nil || g.N() != 9 || g.M() != 9*8/2 || g.MaxDegree() != 8 || g.Diameter() != 1 {
		t.Fatalf("complete: n=%d m=%d Δ=%d err=%v", g.N(), g.M(), g.MaxDegree(), err)
	}
}

func TestWithOverride(t *testing.T) {
	base := MustParse("gnp:n=30")
	over := base.With("p", "0.1")
	if base.Args["p"] != "" || over.Args["p"] != "0.1" || over.Args["n"] != "30" {
		t.Fatalf("With mutated base or dropped args: base=%v over=%v", base.Args, over.Args)
	}
}

func TestFamilyNamesSortedAndComplete(t *testing.T) {
	names := FamilyNames()
	want := []string{"barbell", "complete", "cycle", "cycliques", "gnp", "grid",
		"hub", "hypercube", "path", "powerlaw", "regular", "star", "torus"}
	if len(names) != len(want) {
		t.Fatalf("families %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("families %v, want %v", names, want)
		}
	}
}
