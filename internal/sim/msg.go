// Package sim implements a synchronous round-based simulator for the
// μ-CONGEST model of Ben Basat et al. (SPAA 2025): the classic CONGEST
// model (one O(log n)-bit message per directed edge per round) extended
// with a per-node memory budget of μ words.
//
// Each node runs its algorithm as an ordinary Go function; rounds are
// synchronized with a barrier hidden behind Ctx.Tick. The function runs
// as a coroutine: Tick yields it back to the engine, which resumes it
// with the next round's inbox (a node may instead be written as an
// explicit StepProgram state machine). The engine's per-round work —
// barrier bookkeeping, routing, inbox ordering, memory accounting and
// resuming the nodes — is sharded by destination ranges across a worker
// pool (WithSimWorkers), and each worker runs the node code of its own
// shards; results are bit-for-bit identical for every worker count, so
// parallelism is purely a wall-clock knob.
//
// Model mapping conventions (README.md, "Layout"):
//   - A word is one int64. One Msg is one CONGEST message of O(log n)
//     bits and is accounted as one word of memory while stored.
//   - Bandwidth: at most EdgeCap (default 1) messages per directed edge
//     per round, enforced at send time.
//   - Memory: nodes charge and release words through Ctx; the engine
//     additionally charges the live inbox. Peak usage per node is
//     recorded and compared against μ.
//   - Outputs leave the node via Ctx.Emit and cost no memory, exactly as
//     the μ-CONGEST model prescribes for emitted output words.
package sim

// Msg is a single CONGEST message: an O(log n)-bit payload modeled as a
// small tag plus up to three word-sized fields. A Msg is accounted as
// MsgWords words of node memory while it is stored.
type Msg struct {
	Kind int32
	A    int64
	B    int64
	C    int64
}

// MsgWords is the memory cost, in words, of storing one message.
const MsgWords = 1

// Incoming is a received message together with its provenance.
type Incoming struct {
	From int // sender node id
	Msg  Msg
}

// InboxOrder controls the order in which a round's incoming messages are
// presented to a node. The paper (§4, Discussion) notes that with very
// small memory the arrival order matters; the engine can present inboxes
// sorted, randomly permuted, or adversarially reversed.
type InboxOrder int

const (
	// OrderBySender sorts incoming messages by sender id (deterministic).
	OrderBySender InboxOrder = iota
	// OrderRandom presents messages in a random order drawn from the
	// engine RNG (an oblivious adversary).
	OrderRandom
	// OrderReversed presents messages in decreasing sender id (a simple
	// adversarial order).
	OrderReversed
)
