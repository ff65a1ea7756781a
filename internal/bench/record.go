package bench

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"mucongest/internal/sim"
	"mucongest/internal/topo"
)

// RecordSchema names the serialized record layout; bump on any
// backwards-incompatible field change. The JSON emitter stamps it on
// the document and downstream consumers (CI's recordcheck, plots,
// regression gates) key on it.
const RecordSchema = "mucongest.records/v1"

// Record is the structured result of one simulated execution inside an
// experiment cell: the machine-readable counterpart of one table row.
// Every E1–E13 runner emits Records alongside its rendered table;
// cmd/muexp serializes them with -format csv|json.
//
// All serialized fields are deterministic in (cell, seed): output is
// byte-identical for every -parallel value. Wall time is measured but
// deliberately excluded from serialization, since it would break that
// guarantee; programmatic consumers read it from the struct.
type Record struct {
	// Exp is the experiment id (e.g. "E3"; joint tables use "E1/E2").
	Exp string `json:"exp"`
	// Cell is the grid cell id the run belongs to (e.g. "E1/E2-k3").
	Cell string `json:"cell"`
	// Row is the run's index within its cell, in emission order.
	Row int `json:"row"`
	// Topo is the canonical topology spec of the workload graph.
	Topo string `json:"topo"`
	// Seed is the cell seed the run derived its randomness from. It is
	// serialized as a JSON string: CellSeed output spans the full int64
	// range, beyond float64 precision, and a numeric encoding would be
	// silently mangled by double-based JSON consumers.
	Seed int64 `json:"seed,string"`
	// Params holds the sweep point of this run (e.g. {"mu": "96"}).
	Params map[string]string `json:"params"`
	// Mu is the memory bound in words (≤ 0 when unbounded).
	Mu int64 `json:"mu"`
	// Rounds, Messages, PeakWords summarize the execution.
	Rounds    int   `json:"rounds"`
	Messages  int64 `json:"messages"`
	PeakWords int64 `json:"peakWords"`
	// MuViolations counts nodes that exceeded μ; OverMuRounds counts
	// (node, round) pairs over μ.
	MuViolations int `json:"muViolations"`
	OverMuRounds int `json:"overMuRounds"`
	// WallTime is the measured duration of the run. Excluded from CSV
	// and JSON output: it is the one nondeterministic field.
	WallTime time.Duration `json:"-"`
}

// recordOf builds a Record from a sim result; Cell, Row and Seed are
// stamped later by the grid runner, which knows them.
func recordOf(exp string, tp topo.Spec, mu int64, params map[string]string,
	res *sim.Result, wall time.Duration) Record {
	return Record{
		Exp:          exp,
		Topo:         tp.String(),
		Params:       params,
		Mu:           mu,
		Rounds:       res.Rounds,
		Messages:     res.Messages,
		PeakWords:    res.MaxPeakWords(),
		MuViolations: len(res.Violations),
		OverMuRounds: res.OverMuRounds(),
		WallTime:     wall,
	}
}

// P builds a Params map from alternating key, value pairs, formatting
// values with fmt.Sprint — sugar for the runners' sweep points.
func P(kv ...any) map[string]string {
	if len(kv)%2 != 0 {
		panic("bench: P needs alternating key, value pairs")
	}
	m := make(map[string]string, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		m[kv[i].(string)] = fmt.Sprint(kv[i+1])
	}
	return m
}

// paramsString renders a Params map as "k=v;k=v" with sorted keys —
// the CSV cell encoding of the open-ended sweep point.
func paramsString(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += ";"
		}
		s += k + "=" + m[k]
	}
	return s
}

// RecordCSVHeader is the fixed column order of the CSV emitter.
var RecordCSVHeader = []string{
	"exp", "cell", "row", "topo", "seed", "params",
	"mu", "rounds", "messages", "peakWords", "muViolations", "overMuRounds",
}

// WriteRecordsCSV emits the records as CSV with RecordCSVHeader. The
// open-ended params map is encoded as one "k=v;k=v" column with sorted
// keys, so the column set is fixed across experiments.
func WriteRecordsCSV(w io.Writer, recs []Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(RecordCSVHeader); err != nil {
		return err
	}
	for _, r := range recs {
		row := []string{
			r.Exp, r.Cell, strconv.Itoa(r.Row), r.Topo,
			strconv.FormatInt(r.Seed, 10), paramsString(r.Params),
			strconv.FormatInt(r.Mu, 10), strconv.Itoa(r.Rounds),
			strconv.FormatInt(r.Messages, 10), strconv.FormatInt(r.PeakWords, 10),
			strconv.Itoa(r.MuViolations), strconv.Itoa(r.OverMuRounds),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// recordDoc is the JSON document the emitter produces.
type recordDoc struct {
	Schema  string   `json:"schema"`
	Count   int      `json:"count"`
	Records []Record `json:"records"`
}

// WriteRecordsJSON emits the records as one indented JSON document:
// {"schema": RecordSchema, "count": N, "records": [...]}. Map keys are
// sorted by encoding/json, so the bytes are deterministic.
func WriteRecordsJSON(w io.Writer, recs []Record) error {
	if recs == nil {
		recs = []Record{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(recordDoc{Schema: RecordSchema, Count: len(recs), Records: recs})
}

// Records flattens the records of a slice of tables in table order —
// the emission order cmd/muexp serializes.
func Records(tables []*Table) []Record {
	var out []Record
	for _, t := range tables {
		out = append(out, t.Records...)
	}
	return out
}
