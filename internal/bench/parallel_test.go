package bench

import (
	"bytes"
	"fmt"
	"testing"

	"mucongest/internal/topo"
)

// tinySpecs is a scaled-down grid of real experiments, small enough to
// run repeatedly in tests while still exercising the simulator.
func tinySpecs() []Spec {
	return []Spec{
		{"E1/E2-k3", []string{"E1", "E2"}, "gnp:n=16,p=0.5",
			func(tp topo.Spec, s int64) *Table { return E1E2(tp, 3, s) }},
		{"E4/E5", []string{"E4", "E5"}, "cycliques:k=3,size=4", E4E5},
		{"E6", []string{"E6"}, "hub:n=8,p=0.4", E6},
		{"E7", []string{"E7"}, "gnp:n=10,p=0.15,conn=1", E7},
	}
}

func render(tables []*Table) []byte {
	var buf bytes.Buffer
	for _, t := range tables {
		t.Fprint(&buf)
	}
	return buf.Bytes()
}

func renderCSV(t *testing.T, tables []*Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRecordsCSV(&buf, Records(tables)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func renderJSON(t *testing.T, tables []*Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteRecordsJSON(&buf, Records(tables)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelMatchesSerial pins the acceptance criterion of the worker
// pool: for the same root seed, the pool's output — rendered text,
// serialized CSV and serialized JSON alike — is byte-identical to the
// serial runner's at every worker count.
func TestParallelMatchesSerial(t *testing.T) {
	specs := tinySpecs()
	serial := RunSerial(specs, 7)
	want := render(serial)
	wantCSV := renderCSV(t, serial)
	wantJSON := renderJSON(t, serial)
	for _, workers := range []int{-3, 0, 1, 2, 4, 16} {
		// workers < 1 must clamp to a serial pool, not hang or panic.
		par, err := RunParallel(specs, 7, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := render(par); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: output differs from serial runner\nserial:\n%s\nparallel:\n%s",
				workers, want, got)
		}
		if got := renderCSV(t, par); !bytes.Equal(got, wantCSV) {
			t.Fatalf("workers=%d: CSV differs from serial runner\nserial:\n%s\nparallel:\n%s",
				workers, wantCSV, got)
		}
		if got := renderJSON(t, par); !bytes.Equal(got, wantJSON) {
			t.Fatalf("workers=%d: JSON differs from serial runner\nserial:\n%s\nparallel:\n%s",
				workers, wantJSON, got)
		}
	}
}

// TestParallelReportsLowestFailingCell pins the failure contract of
// the pool: a cell that panics among good ones fails the run with the
// error of the lowest-index failing cell, the same at every worker
// count, instead of crashing the process from a worker goroutine.
func TestParallelReportsLowestFailingCell(t *testing.T) {
	boom := func(id string) Spec {
		return Spec{id, []string{"E0"}, "path:n=4", func(topo.Spec, int64) *Table { panic(id + " exploded") }}
	}
	good := tinySpecs()
	specs := []Spec{good[0], boom("X1"), good[1], boom("X2"), good[2]}
	const want = "cell X1: X1 exploded"
	for _, workers := range []int{1, 4} {
		tables, err := RunParallel(specs, 7, workers)
		if err == nil || err.Error() != want || tables != nil {
			t.Errorf("workers=%d: tables=%v err=%v, want no tables and %q", workers, tables, err, want)
		}
	}
}

// TestOverrideTopo pins the -topo substance: every cell re-runs on the
// substituted family and its records carry the canonical spec.
func TestOverrideTopo(t *testing.T) {
	orig := tinySpecs()[:1]
	specs := OverrideTopo(orig, topo.MustParse("torus:rows=3,cols=4"))
	tables := RunSerial(specs, 3)
	if len(tables) != 1 || len(tables[0].Records) == 0 {
		t.Fatalf("no records from overridden cell")
	}
	for _, r := range tables[0].Records {
		if r.Topo != "torus:rows=3,cols=4" {
			t.Fatalf("record topo %q, want canonical torus spec", r.Topo)
		}
	}
	// The input specs must be untouched.
	if orig[0].Topo != "gnp:n=16,p=0.5" {
		t.Fatal("OverrideTopo mutated its input")
	}
}

func TestCellSeedDeterministicAndDistinct(t *testing.T) {
	if CellSeed(1, "E3") != CellSeed(1, "E3") {
		t.Fatal("CellSeed not deterministic")
	}
	seen := map[int64]string{}
	for _, sp := range Specs() {
		s := CellSeed(1, sp.ID)
		if prev, dup := seen[s]; dup {
			t.Fatalf("cells %q and %q derived the same seed %d", prev, sp.ID, s)
		}
		seen[s] = sp.ID
	}
	if CellSeed(1, "E3") == CellSeed(2, "E3") {
		t.Fatal("CellSeed ignores the root seed")
	}
}

func TestSelectSpecs(t *testing.T) {
	specs := Specs()
	for _, exp := range ExperimentIDs(specs) {
		sel, ok := SelectSpecs(specs, exp)
		if !ok || len(sel) == 0 {
			t.Fatalf("experiment %s not selectable", exp)
		}
		for _, sp := range sel {
			found := false
			for _, e := range sp.Exps {
				found = found || e == exp
			}
			if !found {
				t.Fatalf("SelectSpecs(%s) returned unrelated cell %s", exp, sp.ID)
			}
		}
	}
	// The grid must cover the full E1..E13 map.
	ids := ExperimentIDs(specs)
	if len(ids) != 13 {
		t.Fatalf("experiment ids = %v, want E1..E13", ids)
	}
	for i, id := range ids {
		if want := fmt.Sprintf("E%d", i+1); id != want {
			t.Fatalf("ids[%d] = %s, want %s", i, id, want)
		}
	}
	if all, ok := SelectSpecs(specs, "all"); !ok || len(all) != len(specs) {
		t.Fatal("SelectSpecs(all) must return the whole grid")
	}
	if _, ok := SelectSpecs(specs, "E14"); ok {
		t.Fatal("unknown experiment must not select")
	}
}
