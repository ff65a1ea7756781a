// Record corpus for the nodeterm analyzer, placed in the record layer
// (outside the engine pair): serialized Record fields fed from wall
// clocks, pointer identity, or map iteration fail, and so do emitters
// that format a wall-clock read or an address; the WallTime escape
// hatch and the sorted-params idiom pass.
package recordpurity

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"
)

type Record struct {
	Family   string        `json:"family"`
	ElapsedS float64       `json:"elapsed_s"`
	Params   string        `json:"params"`
	WallTime time.Duration `json:"-"`
}

func makeRecordBad(start time.Time) Record {
	return Record{
		Family:   "bfs",
		ElapsedS: time.Since(start).Seconds(), // want `wall-clock value time\.Since assigned to serialized field ElapsedS`
		WallTime: time.Since(start),           // json:"-" by contract: measuring is fine
	}
}

func labelBad(r *Record, e *int) {
	r.Params = fmt.Sprintf("engine=%p", e) // want `pointer identity \(%p\) written to serialized field Params`
}

func paramsBad(r *Record, p map[string]string) {
	s := ""
	for k, v := range p {
		s += k + "=" + v + ";" // want `map iteration order reaches string concatenation`
	}
	r.Params = s
}

func paramsSortedOK(r *Record, p map[string]string) {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for _, k := range keys {
		s += k + "=" + p[k] + ";"
	}
	r.Params = s
}

func WriteRecordsDebug(w io.Writer, recs []Record) {
	fmt.Fprintf(w, "# emitted at %v\n", time.Now()) // want `wall-clock value time\.Now formatted by fmt\.Fprintf`
	for i := range recs {
		fmt.Fprintf(w, "%d\n", i)
	}
}

func WriteRecordsTrace(w io.Writer, recs []*Record) {
	for _, r := range recs {
		fmt.Fprintf(w, "rec@%p\n", r) // want `pointer identity \(%p\) formatted by fmt\.Fprintf`
	}
}

var schemaRev = 1

func stampAllowed(r *Record) {
	//muvet:allow nodeterm(stable package-level address, identical within a run)
	r.Params = fmt.Sprintf("%v", &schemaRev)
}

// The seed rule binds the engine pair only: the record layer keys its
// workload generators from the cell seed directly.
func workloadRNGOK(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
