package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// FuzzReadNDJSON feeds arbitrary bytes to the recording reader. Any
// input must yield events or an error, never a panic; every accepted
// recording must round-trip through WriteEventsNDJSON unchanged; and the
// Chrome trace view of it must be valid JSON, whatever state its spans
// are in (ends without begins, begins without ends, duplicate IDs,
// unknown parents).
func FuzzReadNDJSON(f *testing.F) {
	recording, err := os.ReadFile("testdata/xbargen-mat2.flight")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recording)
	f.Add([]byte(""))
	// An end without a begin and a begin without an end.
	f.Add([]byte(`{"flight":1,"emitted":2,"dropped":5}
{"seq":5,"t_ns":10,"kind":"span_end","val":3,"flag":true}
{"seq":6,"t_ns":20,"kind":"span_begin","val":4,"aux":3,"who":"core.probe"}
`))
	// Duplicate IDs, an unknown parent, attributes of every value type
	// and an end before its begin's time.
	f.Add([]byte(`{"seq":0,"t_ns":50,"kind":"span_begin","val":1,"aux":99,"who":"a"}
{"seq":1,"t_ns":60,"kind":"span_begin","val":1,"who":"b"}
{"seq":2,"t_ns":61,"kind":"span_attr","val":1,"aux":7,"who":"n"}
{"seq":3,"t_ns":62,"kind":"span_attr","k":1,"val":1,"aux":1,"who":"ok"}
{"seq":4,"t_ns":63,"kind":"span_attr","k":2,"val":1,"who":"s","str":"é"}
{"seq":5,"t_ns":40,"kind":"span_end","val":1}
{"seq":6,"t_ns":70,"kind":"span_end","val":1}
{"seq":7,"t_ns":80,"kind":"probe_close","k":3,"val":269,"aux":41,"who":"feasible","flag":true}
`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, meta, err := ReadNDJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEventsNDJSON(&buf, meta, events); err != nil {
			t.Fatalf("writing an accepted recording: %v", err)
		}
		again, meta2, err := ReadNDJSON(&buf)
		if err != nil {
			t.Fatalf("re-reading a written recording: %v", err)
		}
		if meta2 != meta || !slices.Equal(again, events) {
			t.Fatalf("round trip changed the recording:\n%+v %+v\n%+v %+v", meta, events, meta2, again)
		}
		buf.Reset()
		if err := WriteChromeTrace(&buf, events); err != nil {
			t.Fatalf("chrome trace of an accepted recording: %v", err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("chrome trace is not valid JSON: %s", buf.Bytes())
		}
	})
}
