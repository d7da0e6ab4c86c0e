package exp

import (
	"encoding/json"
	"io"
)

// SchemaVersion identifies the JSON layout of ExperimentResult. Bump it on
// any field rename or semantic change so downstream tooling can reject
// files it does not understand.
//
// v2: smt.Results gained the five fetch-availability fields
// (fetch_cycles_frac and the fetch_lost_* split, including the corrected
// I-miss / bank-conflict attribution).
const SchemaVersion = 2

// SeriesResult is one line of a figure (or row group of a table): a named
// sequence of points in grid order.
type SeriesResult struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// ExperimentResult is the machine-readable output of one engine run. Its
// JSON encoding is deterministic — fixed field order, slices rather than
// maps — so byte equality is the engine's reproducibility contract.
type ExperimentResult struct {
	SchemaVersion int            `json:"schema_version"`
	Experiment    string         `json:"experiment"`
	Title         string         `json:"title"`
	Opts          Opts           `json:"opts"`
	Series        []SeriesResult `json:"series"`
}

// EncodeJSON writes the result as indented JSON with a trailing newline.
func (r *ExperimentResult) EncodeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Lookup returns the named series, or nil if the experiment has none.
func (r *ExperimentResult) Lookup(series string) []Point {
	for _, s := range r.Series {
		if s.Name == series {
			return s.Points
		}
	}
	return nil
}
