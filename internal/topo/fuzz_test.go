package topo

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// FuzzTopoParse pins the registry's parsing contract: Parse never
// panics (malformed specs must return errors), and any spec that
// parses round-trips through its canonical String() form — the
// property experiment records rely on when they embed a spec and later
// rebuild the graph from it. Equivalent spellings of the same value
// ("p=.5", "p=0.50", "conn=true") must canonicalize to the same string,
// so grouping runs by canonical spec is sound.
//
// Every parsed spec small enough to build cheaply (estimated N ≤ 64
// and M ≤ 256) builds through both views without a panic: both succeed
// with the estimated node count, or both fail with the same error. The
// Build-only caps (complete above n=2048, hypercube above dim=20) lie
// beyond that size, so no exception is needed.
//
// The seed corpus covers every registered family three ways: the bare
// name, the canonical fully-explicit form, and a single-argument form —
// plus a spread of malformed inputs that must error cleanly.
func FuzzTopoParse(f *testing.F) {
	for _, fam := range FamilyNames() {
		f.Add(fam)
		f.Add(MustParse(fam).String())
		ps := lookup(fam).Params
		if len(ps) > 0 {
			f.Add(fam + ":" + ps[0].Name + "=" + ps[0].Default)
		}
	}
	for _, bad := range []string{
		"", ":", "nope", "nope:n=4", "gnp:", "gnp:n", "gnp:n=", "gnp:=4",
		"gnp:n=4,n=4", "gnp:q=4", "torus:rows=,", "cycle:n=four",
		"grid:rows=3,cols", "  ", "gnp:n==5", "cycle:n=-1", "powerlaw:n=1,attach=9",
	} {
		f.Add(bad)
	}
	// Samplers that give up: both views must fail alike, never panic.
	f.Add("gnp:n=40,p=0.001,conn=1")
	f.Add("regular:n=10,d=9")
	f.Fuzz(func(t *testing.T, s string) {
		sp, err := Parse(s)
		if err != nil {
			if !strings.Contains(err.Error(), "topo:") {
				t.Errorf("Parse(%q) error lacks package prefix: %v", s, err)
			}
			return
		}
		canon := sp.String()
		sp2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q failed to re-parse: %v", canon, s, err)
		}
		if got := sp2.String(); got != canon {
			t.Fatalf("canonical form is not a fixed point: %q -> %q (from %q)", canon, got, s)
		}
		if sp2.Family != sp.Family {
			t.Fatalf("family changed across round-trip: %q -> %q", sp.Family, sp2.Family)
		}
		// Equivalent spellings of every explicitly-given parameter must
		// canonicalize to the same string as the original spec.
		fam := lookup(sp.Family)
		for _, p := range fam.Params {
			raw, ok := sp.Args[p.Name]
			if !ok {
				continue
			}
			var alts []string
			switch p.Kind {
			case KindInt:
				if i, err := strconv.Atoi(raw); err == nil {
					if i >= 0 {
						alts = append(alts, "+"+strconv.Itoa(i), "0"+strconv.Itoa(i), "00"+strconv.Itoa(i))
					} else {
						alts = append(alts, "-0"+strconv.Itoa(-i))
					}
				}
			case KindFloat:
				if x, err := strconv.ParseFloat(raw, 64); err == nil && !math.IsNaN(x) && !math.IsInf(x, 0) {
					c := strconv.FormatFloat(x, 'g', -1, 64)
					if strings.Contains(c, ".") && !strings.ContainsAny(c, "eE") {
						alts = append(alts, c+"0") // trailing zero
						if strings.HasPrefix(c, "0.") {
							alts = append(alts, c[1:]) // ".5" for "0.5"
						}
						if strings.HasPrefix(c, "-0.") {
							alts = append(alts, "-"+c[2:])
						}
					}
					if !strings.HasPrefix(c, "-") {
						alts = append(alts, "+"+c)
					}
				}
			case KindBool:
				if b, err := strconv.ParseBool(raw); err == nil {
					if b {
						alts = append(alts, "true", "t", "T", "TRUE")
					} else {
						alts = append(alts, "false", "f", "F", "FALSE")
					}
				}
			}
			for _, alt := range alts {
				if got := sp.With(p.Name, alt).String(); got != canon {
					t.Errorf("equivalent spelling %s=%q of %q canonicalizes to %q, want %q",
						p.Name, alt, s, got, canon)
				}
			}
		}
		est, err := sp.Estimate()
		if err != nil || est.N > 64 || est.M > 256 {
			return
		}
		g, gerr := sp.Build(rand.New(rand.NewSource(1)))
		tp, terr := sp.BuildTopology(rand.New(rand.NewSource(1)))
		switch {
		case gerr == nil && terr == nil:
			if g.N() != est.N || tp.N() != est.N {
				t.Fatalf("%q: built n=%d (explicit) and n=%d (compact), estimated %d", canon, g.N(), tp.N(), est.N)
			}
		case gerr == nil || terr == nil || gerr.Error() != terr.Error():
			t.Fatalf("%q: Build error %v, BuildTopology error %v; want the same", canon, gerr, terr)
		}
	})
}
