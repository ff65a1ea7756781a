//go:build simdebug

package sim

import (
	"fmt"
	"testing"

	"mucongest/internal/graph"
)

// TestPoisonStaleInbox deliberately violates the Tick aliasing contract
// (retaining the returned slice past the next Tick) and asserts that
// simdebug poisoning turns the stale read into sentinel values instead
// of silently stale or clobbered messages, in both program forms.
//
// The keeper shares its shard's inbox arena with every other receiver,
// so the test also pins that poisoning covers retired regions only —
// every node's live inbox reads its own messages — and that a handed
// inbox's capacity ends with its region: the keeper appends to its
// inbox before its right-hand neighbour in the arena reads its own.
func TestPoisonStaleInbox(t *testing.T) {
	const n, keeper = 8, 3
	forms := []struct {
		name string
		prog Program
	}{
		{"blocking", Func(func(c *Ctx) {
			c.Broadcast(Msg{Kind: 7, A: int64(c.ID())})
			in := c.Tick()
			c.Emit(checkInbox(c, in, 7))
			var stale []Incoming
			if c.ID() == keeper {
				//muvet:allow inboxalias(this test violates the contract on purpose to assert simdebug poisoning catches it)
				stale = in
				c.Emit(appendCopies(in))
			}
			c.Broadcast(Msg{Kind: 8, A: int64(c.ID())})
			live := c.Tick()
			c.Emit(checkInbox(c, live, 8))
			if c.ID() == keeper {
				//muvet:allow inboxalias(the stale read is the point: it must see the poison sentinels)
				c.Emit(checkPoisoned(stale))
			}
		})},
		{"step", Steps(func(*Ctx) StepProgram { return new(poisonStep) })},
	}
	for _, form := range forms {
		res, err := New(graph.Cycle(n), WithSeed(1)).RunProgram(form.prog)
		if err != nil {
			t.Fatalf("%s: %v", form.name, err)
		}
		for id, outs := range res.Outputs {
			want := 2
			if id == keeper {
				want = 4
			}
			if len(outs) != want {
				t.Errorf("%s: node %d emitted %d reports, want %d", form.name, id, len(outs), want)
			}
			for _, o := range outs {
				if o != "" {
					t.Errorf("%s: node %d: %v", form.name, id, o)
				}
			}
		}
	}
}

// poisonStep is the step form of TestPoisonStaleInbox's program.
type poisonStep struct {
	r     int
	stale []Incoming
}

func (s *poisonStep) Step(c *Ctx, in []Incoming) bool {
	switch s.r {
	case 0:
		c.Broadcast(Msg{Kind: 7, A: int64(c.ID())})
	case 1:
		c.Emit(checkInbox(c, in, 7))
		if c.ID() == 3 {
			//muvet:allow stepalias(this test violates the contract on purpose to assert simdebug poisoning catches it)
			s.stale = in
			c.Emit(appendCopies(in))
		}
		c.Broadcast(Msg{Kind: 8, A: int64(c.ID())})
	default:
		c.Emit(checkInbox(c, in, 8))
		if c.ID() == 3 {
			c.Emit(checkPoisoned(s.stale))
		}
		return false
	}
	s.r++
	return true
}

// checkInbox reports unless in holds one message of the given kind from
// each neighbour, each carrying its sender's id.
func checkInbox(c *Ctx, in []Incoming, kind int32) string {
	if len(in) != c.Degree() {
		return fmt.Sprintf("round %d: %d messages, want %d", c.Round(), len(in), c.Degree())
	}
	for _, m := range in {
		if m.Msg.Kind != kind || m.Msg.A != int64(m.From) || c.PortOf(m.From) < 0 {
			return fmt.Sprintf("round %d: message %+v, want kind %d from a neighbour", c.Round(), m, kind)
		}
	}
	return ""
}

// appendCopies appends to an inbox, which must copy it: were its
// capacity to run on into the next node's region, the append would
// overwrite that node's first message.
func appendCopies(in []Incoming) string {
	if grown := append(in, Incoming{From: -2, Msg: Msg{Kind: -2}}); &grown[0] == &in[0] {
		return "appending to the inbox wrote into the arena"
	}
	return ""
}

// checkPoisoned reports unless a retained inbox reads sentinels.
func checkPoisoned(stale []Incoming) string {
	if len(stale) == 0 {
		return "nothing retained"
	}
	for _, m := range stale {
		if m.From != -1 || m.Msg.Kind != -1 {
			return fmt.Sprintf("retained message = %+v, want poisoned sentinels (From/Kind = -1)", m)
		}
	}
	return ""
}
