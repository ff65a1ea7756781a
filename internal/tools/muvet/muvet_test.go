package muvet_test

import (
	"testing"

	"mucongest/internal/tools/muvet"
	"mucongest/internal/tools/muvet/muvettest"
)

// Each corpus declares its seeded violations with `// want` comments;
// the importPath argument places it inside the analyzer's scope.

// nodeterm runs on three corpora: its own and the seed-derivation one
// inside the engine pair, where the seed rule applies, and the record
// corpus as the record layer, where it does not.

func TestNoDeterm(t *testing.T) {
	muvettest.Run(t, muvet.NoDeterm, "nodeterm", "mucongest/internal/sim")
}

func TestNoDetermSeeds(t *testing.T) {
	muvettest.Run(t, muvet.NoDeterm, "shardrng", "mucongest/internal/sim")
}

func TestNoDetermRecords(t *testing.T) {
	muvettest.Run(t, muvet.NoDeterm, "recordpurity", "mucongest/internal/bench")
}

func TestInboxAlias(t *testing.T) {
	muvettest.Run(t, muvet.InboxAlias, "inboxalias", "example.com/inboxalias")
}

func TestHotAlloc(t *testing.T) {
	muvettest.Run(t, muvet.HotAlloc, "hotalloc", "example.com/hotalloc")
}

// The step-contract corpora import the shared stepstub package, so they
// also exercise muvettest's cross-package import resolution and the
// structural matching of methods whose parameter types are imported.

func TestStepBlock(t *testing.T) {
	muvettest.Run(t, muvet.StepBlock, "stepblock", "example.com/stepblock")
}

func TestStepAlias(t *testing.T) {
	muvettest.Run(t, muvet.StepAlias, "stepalias", "example.com/stepalias")
}

func TestCtxRetain(t *testing.T) {
	muvettest.Run(t, muvet.CtxRetain, "ctxretain", "example.com/ctxretain")
}

func TestSuiteOrder(t *testing.T) {
	want := []string{"nodeterm", "inboxalias", "hotalloc", "stepblock", "stepalias", "ctxretain"}
	suite := muvet.Suite()
	if len(suite) != len(want) {
		t.Fatalf("Suite() has %d analyzers, want %d", len(suite), len(want))
	}
	for i, a := range suite {
		if a.Name != want[i] {
			t.Errorf("Suite()[%d] = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing Doc or Run", a.Name)
		}
	}
}
