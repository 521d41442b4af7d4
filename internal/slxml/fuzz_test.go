package slxml

import (
	"encoding/xml"
	"testing"
)

// FuzzDecodeModel feeds arbitrary bytes to the decoder behind Read, past the
// zip container: xml.Unmarshal into the document types, then decodeModel,
// whose last step is model.Validate. Any payload must come back as a model
// or an error, never a panic. The committed corpus holds documents of at
// most 362 bytes (an Inport→Outport model, a chart, a subsystem, every
// parameter encoding): the fuzzer minimizes each new input it finds, and
// from kilobyte seeds that minimizing takes most of a short run.
func FuzzDecodeModel(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		var doc xModel
		if err := xml.Unmarshal(payload, &doc); err != nil {
			return
		}
		if m, err := decodeModel(&doc); m == nil && err == nil {
			t.Fatal("decodeModel returned neither a model nor an error")
		}
	})
}
