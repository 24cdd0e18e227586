package decision

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// goldenTraces returns the repository's decision-trace goldens, the NDJSON
// fixtures the root golden tests pin.
func goldenTraces(tb testing.TB) [][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "decisions", "*.ndjson"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no decision goldens found (%v)", err)
	}
	var out [][]byte
	for _, p := range paths {
		blob, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, blob)
	}
	return out
}

// FuzzReadNDJSON feeds arbitrary bytes to ReadNDJSON, registered alongside
// the ace-profile and machine-config fuzzers. ReadNDJSON must never panic;
// every rejection must wrap ErrCorrupt; and whenever it accepts an input,
// writing the trace and reading it back must reproduce it exactly, in the
// same bytes as the first write — the property the golden-trace and replay
// machinery rely on.
func FuzzReadNDJSON(f *testing.F) {
	goldens := goldenTraces(f)
	for _, g := range goldens {
		f.Add(g)
	}
	small := goldens[len(goldens)-1]
	f.Add(small[:len(small)/2])
	f.Add(bytes.Replace(small, []byte(`"events":`), []byte(`"events":1`), 1))
	f.Add(bytes.Replace(small, []byte(`"kind":"iql-cap"`), []byte(`"kind":"iql-cup"`), 1))
	f.Add(append(append([]byte{}, small...), small[:bytes.IndexByte(small, '\n')+1]...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadNDJSON(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("rejection does not wrap ErrCorrupt: %v", err)
			}
			return
		}
		var out bytes.Buffer
		if err := tr.WriteNDJSON(&out); err != nil {
			t.Fatalf("writing an accepted trace: %v", err)
		}
		tr2, err := ReadNDJSON(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("reading a written trace: %v", err)
		}
		if !reflect.DeepEqual(tr, tr2) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", tr2, tr)
		}
		var out2 bytes.Buffer
		if err := tr2.WriteNDJSON(&out2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatalf("second write differs from the first:\n%s\n%s", out2.Bytes(), out.Bytes())
		}
		if strings.Count(out.String(), "\n") != len(tr.Events)+2 {
			t.Fatalf("written trace is not header + %d events + summary lines", len(tr.Events))
		}
	})
}
