// Corpus for the nodeterm analyzer: seeded nondeterminism violations
// plus the idioms the checker must leave alone.
package nodeterm

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
	"unsafe"
)

type stats struct {
	ElapsedS float64       `json:"elapsed_s"`
	Rounds   int           `json:"rounds"`
	Wall     time.Duration `json:"-"`
	scratch  string
}

// timing is a serialized struct other than bench.Record: the
// time-value rule covers every struct in scope.
type timing struct {
	Took    time.Duration `json:"took"`
	Timeout time.Duration `json:"timeout"`
}

var pkgDraw = rand.Intn(4) // want `call to global math/rand\.Intn`

func globalRand() int {
	n := rand.Intn(10) // want `call to global math/rand\.Intn`
	n += rand.Int()    // want `call to global math/rand\.Int`
	return n
}

func seededRandOK(seed int64) int {
	r := rand.New(rand.NewSource(seed*1_000_003 + 1))
	return r.Intn(10)
}

func wallClockToFmt() string {
	start := time.Now()
	return fmt.Sprintf("took %v", time.Since(start)) // want `wall-clock value time\.Since formatted by fmt\.Sprintf`
}

func wallClockToField() stats {
	start := time.Now()
	el := time.Since(start)
	return stats{
		Rounds:   3,
		ElapsedS: el.Seconds(), // want `wall-clock value time\.Since via el assigned to serialized field ElapsedS`
		Wall:     el,           // json:"-": measuring wall time is fine
	}
}

func wallClockDeclared() string {
	var t0 = time.Now()
	return fmt.Sprint(t0.Unix()) // want `wall-clock value time\.Now via t0 formatted by fmt\.Sprint`
}

func wallClockFieldAssign(s *stats) {
	t0 := time.Now()
	s.ElapsedS = time.Since(t0).Seconds() // want `wall-clock value time\.Since written to serialized field ElapsedS`
	s.scratch = "x"                       // untagged field: not serialized
}

func emitUnsorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k+"!") // want `map iteration order reaches an append`
	}
	return out
}

func dumpUnsorted(m map[string]int, b *strings.Builder) {
	for k := range m {
		b.WriteString(k) // want `map iteration order reaches method WriteString`
	}
}

func joinKeys(m map[string]bool) string {
	s := ""
	for k := range m {
		s += k // want `map iteration order reaches string concatenation`
	}
	return s
}

// firstError mirrors the PR-3 abort-race shape: harvesting per-node
// errors from a map and keeping the first one observed lets iteration
// order pick the winner.
func firstError(errs map[int]error) error {
	var first error
	for _, e := range errs {
		if first == nil {
			first = e // want `map iteration order reaches an overwrite of first \(first/last writer wins\)`
		}
	}
	return first
}

func emitSortedOK(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func totalOK(m map[string]int) int {
	sum := 0
	for _, v := range m {
		sum += v
	}
	return sum
}

func minValOK(m map[string]int) int {
	best := 1 << 30
	for _, v := range m {
		if v < best {
			best = v
		}
	}
	return best
}

func allowedRand() int {
	//muvet:allow nodeterm(diagnostic sampling, never serialized)
	return rand.Intn(3)
}

func pointerInError(s *stats) error {
	return fmt.Errorf("bad stats at %p", s) // want `pointer identity \(%p\) formatted by fmt\.Errorf`
}

func pointerPrinted(s *stats) string {
	return fmt.Sprint("stats at ", s) // want `pointer identity \(pointer argument\) formatted by fmt\.Sprint`
}

func addressKey(s *stats) string {
	key := uintptr(unsafe.Pointer(s))
	return fmt.Sprint(key) // want `pointer identity \(uintptr conversion\) via key formatted by fmt\.Sprint`
}

func durationField(d time.Duration) timing {
	return timing{Took: d} // want `time\.Duration value d assigned to serialized field Took`
}

func durationFieldAssign(t *timing, d time.Duration) {
	t.Took = d // want `time\.Duration value d written to serialized field Took`
}

// A time value outside a serialized field, and a constant duration in
// one, are deterministic.
func durationOK(d time.Duration) (timing, error) {
	return timing{Timeout: 5 * time.Second}, fmt.Errorf("timed out after %v", d)
}
