package decision

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// The trace format is newline-delimited JSON: one header line, one line
// per event, one summary line. Field order is fixed by the struct
// definitions and floats render in shortest round-trip form, so the output
// is deterministic, byte equality is bit equality, and the golden tests
// pin it. Trace files (*.ndjson.gz) are the same stream behind gzip.

// ErrCorrupt is wrapped by every ReadNDJSON and ReadFile failure past
// opening the file.
var ErrCorrupt = errors.New("corrupt decision trace")

func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
}

type ndjsonHeader struct {
	Type         string `json:"type"` // "header"
	Controller   string `json:"controller,omitempty"`
	Scheme       string `json:"scheme"`
	Policy       string `json:"policy"`
	CellKey      string `json:"cell,omitempty"`
	ConfigHash   string `json:"config_hash"`
	Level        int    `json:"trace_level"`
	MeasureStart uint64 `json:"measure_start"`
	Events       int    `json:"events"`
	// Config is ConfigJSON, so a replayer can rebuild the cell.
	Config json.RawMessage `json:"config,omitempty"`
}

type ndjsonEvent struct {
	Type string `json:"type"` // "event"
	Kind string `json:"kind"`
	Event
}

type ndjsonSummary struct {
	Type string `json:"type"` // "summary"
	Summary
}

// WriteNDJSON renders the trace as newline-delimited JSON: a header line,
// one event line per event, and a summary line. Events must be in
// nondecreasing cycle order, as a Sink receives them.
func (t *Trace) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	hdr := ndjsonHeader{
		Type:       "header",
		Controller: t.Controller,
		Scheme:     t.Scheme,
		Policy:     t.Policy,
		CellKey:    t.CellKey,
		ConfigHash: t.ConfigHash,
		Level:      t.Level, MeasureStart: t.MeasureStart,
		Events: len(t.Events),
		Config: t.ConfigJSON,
	}
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for i, ev := range t.Events {
		if i > 0 && ev.Cycle < t.Events[i-1].Cycle {
			return fmt.Errorf("decision: event %d cycle %d before predecessor %d", i, ev.Cycle, t.Events[i-1].Cycle)
		}
		if err := enc.Encode(ndjsonEvent{Type: "event", Kind: ev.Kind.String(), Event: ev}); err != nil {
			return err
		}
	}
	return enc.Encode(ndjsonSummary{Type: "summary", Summary: t.Summary})
}

// ReadNDJSON reads a trace written by WriteNDJSON. It never panics, and
// every failure wraps ErrCorrupt: a line of the wrong type, an unknown
// field or event kind, an event count that disagrees with the header,
// events out of cycle order, and anything after the summary line. JSON
// has no NaN or ±Inf, so those are syntax errors here.
func ReadNDJSON(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()

	var h ndjsonHeader
	if err := dec.Decode(&h); err != nil {
		return nil, corruptf("header: %v", err)
	}
	if h.Type != "header" {
		return nil, corruptf("first line has type %q, want header", h.Type)
	}
	if h.Events < 0 {
		return nil, corruptf("header claims %d events", h.Events)
	}
	t := &Trace{
		Controller:   h.Controller,
		Scheme:       h.Scheme,
		Policy:       h.Policy,
		CellKey:      h.CellKey,
		ConfigHash:   h.ConfigHash,
		Level:        h.Level,
		MeasureStart: h.MeasureStart,
	}
	if len(h.Config) > 0 {
		// Hold the config as WriteNDJSON renders it (compact, HTML
		// escaped), so a read trace writes back byte-identically.
		blob, err := json.Marshal(h.Config)
		if err != nil {
			return nil, corruptf("config: %v", err)
		}
		t.ConfigJSON = blob
	}

	// Events grow one line at a time: a header that lies about its count
	// must not allocate what it claims.
	for i := 0; i < h.Events; i++ {
		var line ndjsonEvent
		if err := dec.Decode(&line); err != nil {
			return nil, corruptf("event %d of %d: %v", i+1, h.Events, err)
		}
		if line.Type != "event" {
			return nil, corruptf("event %d of %d has type %q", i+1, h.Events, line.Type)
		}
		kind, ok := kindNamed(line.Kind)
		if !ok {
			return nil, corruptf("event %d has unknown kind %q", i+1, line.Kind)
		}
		ev := line.Event
		ev.Kind = kind
		if n := len(t.Events); n > 0 && ev.Cycle < t.Events[n-1].Cycle {
			return nil, corruptf("event %d cycle %d before predecessor %d", i+1, ev.Cycle, t.Events[n-1].Cycle)
		}
		t.Events = append(t.Events, ev)
	}

	var s ndjsonSummary
	if err := dec.Decode(&s); err != nil {
		return nil, corruptf("summary after %d events: %v", h.Events, err)
	}
	if s.Type != "summary" {
		return nil, corruptf("line after %d events has type %q, want summary", h.Events, s.Type)
	}
	t.Summary = s.Summary
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("a line follows the summary")
		}
		return nil, corruptf("after the summary: %v", err)
	}
	return t, nil
}

// kindNamed is the inverse of Kind.String.
func kindNamed(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// WriteFile writes the trace to path as gzip'd NDJSON. The gzip header
// carries no name or modification time, so a trace always yields the same
// bytes.
func WriteFile(path string, t *Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	err = t.WriteNDJSON(zw)
	if err == nil {
		err = zw.Close()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile reads a trace file written by WriteFile.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w: gzip: %v", path, ErrCorrupt, err)
	}
	t, err := ReadNDJSON(zr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t, nil
}
