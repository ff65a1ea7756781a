// Command benchjson converts `go test -bench` output on stdin into the
// mucongest.bench/v1 JSON schema on stdout: one entry per benchmark
// with name, ns/op, B/op and allocs/op. `make bench-record` pipes the
// BenchmarkEngineRound* cells through it to produce the committed
// performance baseline (BENCH_PR12.json; earlier baselines are in git
// history), which CI validates with internal/tools/recordcheck — so the
// perf trajectory stays machine-readable and cannot silently drop
// fields.
//
// Input lines must carry allocation columns (run the benchmarks with
// -benchmem); lines that are not benchmark results are ignored, and an
// input with no result lines is an error.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
)

// resultLine matches one `go test -bench -benchmem` result, e.g.
//
//	BenchmarkEngineRoundDense64-8  5  4876744 ns/op  4424 B/op  70 allocs/op
//
// The -8 GOMAXPROCS suffix is stripped from the reported name.
var resultLine = regexp.MustCompile(
	`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op`)

type entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
}

func main() {
	var entries []entry
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		m := resultLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err1 := strconv.ParseFloat(m[2], 64)
		by, err2 := strconv.ParseFloat(m[3], 64)
		al, err3 := strconv.ParseFloat(m[4], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			fmt.Fprintf(os.Stderr, "benchjson: unparseable result line: %s\n", sc.Text())
			os.Exit(1)
		}
		entries = append(entries, entry{Name: m[1], NsPerOp: ns, BytesPerOp: by, AllocsPerOp: al})
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: reading stdin: %v\n", err)
		os.Exit(1)
	}
	if len(entries) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines on stdin (did you pass -benchmem?)")
		os.Exit(1)
	}
	doc := struct {
		Schema     string  `json:"schema"`
		Count      int     `json:"count"`
		Benchmarks []entry `json:"benchmarks"`
	}{Schema: "mucongest.bench/v1", Count: len(entries), Benchmarks: entries}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}
