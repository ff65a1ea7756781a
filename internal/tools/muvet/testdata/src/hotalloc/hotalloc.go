// Corpus for the hotalloc analyzer: allocation in annotated hot paths
// fails; the warmup and abort idioms (and unannotated functions) pass.
package hotalloc

import "fmt"

type ring struct {
	buf  []int
	out  []int
	name string
}

// push is the legitimate warmup allocator: growth happens only inside
// the cap-guarded branch, so the steady state is allocation-free.
//
//muvet:hotpath
func (r *ring) push(v int) {
	if need := len(r.buf) + 1; cap(r.buf) < need {
		next := make([]int, len(r.buf), need*2)
		copy(next, r.buf)
		r.buf = next
	}
	r.buf = append(r.buf, v)
}

//muvet:hotpath
func (r *ring) label(v int) string {
	return fmt.Sprintf("ring[%s]=%d", r.name, v) // want `fmt\.Sprintf allocates in hot path label`
}

//muvet:hotpath
func (r *ring) freshMap() map[int]int {
	return map[int]int{1: 1} // want `map literal allocates in hot path freshMap`
}

//muvet:hotpath
func (r *ring) freshSlice() {
	r.out = append([]int{}, r.buf...) // want `slice literal allocates in hot path freshSlice` `append onto a fresh slice allocates every call in hot path freshSlice`
}

//muvet:hotpath
func (r *ring) grow() {
	r.buf = make([]int, 8) // want `make allocates in hot path grow`
}

//muvet:hotpath
func (r *ring) concat(a, b string) string {
	return a + b // want `string concatenation allocates in hot path concat`
}

//muvet:hotpath
func (r *ring) stringify(b []byte) string {
	return string(b) // want `string conversion allocates in hot path stringify`
}

//muvet:hotpath
func (r *ring) bytes(s string) []byte {
	return []byte(s) // want `slice conversion allocates in hot path bytes`
}

// words is a named slice type: converting to it from []int shares the
// backing array, so it allocates nothing.
type words []int

//muvet:hotpath
func (r *ring) view() words {
	return words(r.buf)
}

//muvet:hotpath
func (r *ring) closure(v int) func() int {
	return func() int { return v } // want `capturing closure in hot path closure`
}

//muvet:hotpath
func (r *ring) box(v int) any {
	return any(v) // want `interface conversion boxes its operand in hot path box`
}

//muvet:hotpath
func (r *ring) guard(v int) {
	if v < 0 {
		panic(fmt.Sprintf("bad v=%d", v)) // abort path: exempt
	}
	r.buf[0] = v
}

//muvet:hotpath
func (r *ring) note(v int) {
	//muvet:allow hotalloc(cold diagnostics, called once per run)
	r.name = fmt.Sprintf("v=%d", v)
}

// elseOfGuardHot: only the THEN branch of a cap-guard is the warmup
// path. The else arm runs on every steady-state call, so allocation
// there is flagged (the old pass exempted the whole if statement).
//
//muvet:hotpath
func (r *ring) elseOfGuardHot(v int) {
	if cap(r.buf) > len(r.buf) {
		r.buf = append(r.buf, v)
	} else {
		r.out = make([]int, 1) // want `make allocates in hot path elseOfGuardHot`
	}
}

// abortMessage builds its panic message in a separate statement: the
// whole block ends in panic, so it is cold even though the Sprintf is
// not syntactically a panic argument (the old pass flagged it).
//
//muvet:hotpath
func (r *ring) abortMessage(v int) {
	if v < 0 {
		msg := fmt.Sprintf("bad v=%d", v)
		panic(msg)
	}
	r.buf[0] = v
}

// setup is not annotated: allocation is free here.
func setup() *ring {
	return &ring{buf: make([]int, 0, 64), name: fmt.Sprintf("ring-%d", 0)}
}
