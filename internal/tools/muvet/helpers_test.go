package muvet

import "testing"

func TestStripTestVariant(t *testing.T) {
	cases := []struct{ in, want string }{
		{"mucongest/internal/sim", "mucongest/internal/sim"},
		{"mucongest/internal/sim [mucongest/internal/sim.test]", "mucongest/internal/sim"},
		{"mucongest/internal/sim_test [mucongest/internal/sim.test]", "mucongest/internal/sim_test"},
	}
	for _, c := range cases {
		if got := stripTestVariant(c.in); got != c.want {
			t.Errorf("stripTestVariant(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestInScope(t *testing.T) {
	if !inScope("mucongest/internal/sim", nodetermScope...) {
		t.Error("sim should be in nodeterm scope")
	}
	if inScope("mucongest/internal/topo", nodetermScope...) {
		t.Error("topo should not be in nodeterm scope")
	}
	if !inScope("mucongest/internal/sim/refsim", engineScope...) {
		t.Error("refsim should be in the engine sub-scope")
	}
	if inScope("mucongest/internal/bench", engineScope...) {
		t.Error("bench should not be in the engine sub-scope")
	}
	if !inScope("mucongest/internal/bench", nodetermScope...) {
		t.Error("bench should be in nodeterm scope")
	}
}

func TestLookupTag(t *testing.T) {
	cases := []struct {
		tag, key, want string
		ok             bool
	}{
		{`json:"name"`, "json", "name", true},
		{`json:"name,omitempty"`, "json", "name", true},
		{`json:"-"`, "json", "-", true},
		{`csv:"col" json:"x"`, "json", "x", true},
		{`csv:"col"`, "json", "", false},
		{``, "json", "", false},
	}
	for _, c := range cases {
		got, ok := lookupTag(c.tag, c.key)
		if got != c.want || ok != c.ok {
			t.Errorf("lookupTag(%q, %q) = %q,%v want %q,%v", c.tag, c.key, got, ok, c.want, c.ok)
		}
	}
}

func TestAllowRx(t *testing.T) {
	ms := allowRx.FindAllStringSubmatch(" nodeterm(cold path) hotalloc(warmup only)", -1)
	if len(ms) != 2 || ms[0][1] != "nodeterm" || ms[1][1] != "hotalloc" {
		t.Fatalf("allowRx parse = %v", ms)
	}
	if allowRx.FindAllStringSubmatch(" nodeterm()", -1) != nil {
		t.Error("empty reason must not parse")
	}
}
