//go:build simdebug

package sim

import (
	"testing"

	"mucongest/internal/graph"
)

// TestPoisonStaleInbox deliberately violates the Tick aliasing contract
// (retaining the returned slice past the next Tick) and asserts that
// simdebug poisoning turns the stale read into sentinel values instead
// of silently stale or clobbered messages.
func TestPoisonStaleInbox(t *testing.T) {
	var stale []Incoming
	e := New(graph.Path(2), WithSeed(1))
	if _, err := e.Run(func(c *Ctx) {
		c.SendID(1-c.ID(), Msg{Kind: 7, A: int64(c.ID())})
		in := c.Tick()
		if c.ID() == 0 {
			//muvet:allow inboxalias(this test violates the contract on purpose to assert simdebug poisoning catches it)
			stale = in
		}
		c.Tick()
	}); err != nil {
		t.Fatal(err)
	}
	if len(stale) != 1 {
		t.Fatalf("retained inbox has %d messages, want 1", len(stale))
	}
	if stale[0].From != -1 || stale[0].Msg.Kind != -1 {
		t.Fatalf("retained message = %+v, want poisoned sentinels (From/Kind = -1)", stale[0])
	}
}
