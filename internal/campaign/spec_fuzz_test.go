package campaign

import (
	"bytes"
	"encoding/json"
	"testing"

	"cftcg/internal/codegen"
	"cftcg/internal/fuzz"
	"cftcg/internal/model"
)

// FuzzSpec feeds arbitrary bytes through the daemon's spec path: the JSON
// decode of POST /api/campaigns, then Spec.options and Options.Validate as
// Submit applies them. A spec they accept runs on one bare engine — a
// campaign would recover a panic as a failed shard — over a one-inport
// model, with 20 execs, no wall budget and no checkpoint files.
// NewEngine may refuse the spec; a panic fails the target. The model's
// tuple is 2 bytes, so a MaxTuples that wraps the input length cap negative
// (the overflowing-max-tuples seed) reaches the mutators unless NewEngine
// refuses it.
func FuzzSpec(f *testing.F) {
	b := model.NewBuilder("Short")
	u := b.Inport("u", model.Int16)
	eq := b.Rel("==", u, b.ConstT(model.Int16, 12345))
	b.Outport("y", model.Int16, b.Switch(eq, b.ConstT(model.Int16, 1), b.ConstT(model.Int16, 0)))
	c, err := codegen.Compile(b.Model())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if json.NewDecoder(bytes.NewReader(data)).Decode(&spec) != nil {
			return
		}
		opts, err := spec.options()
		if err == nil {
			err = opts.Validate()
		}
		if err != nil {
			return
		}
		opts.MaxExecs, opts.Budget = 20, 0
		opts.CheckpointPath, opts.ResumeFrom = "", ""
		e, err := fuzz.NewEngine(c, opts)
		if err != nil {
			return
		}
		if res := e.Run(); res.Execs != opts.MaxExecs {
			t.Fatalf("spec %s: engine ran %d execs, want %d", data, res.Execs, opts.MaxExecs)
		}
	})
}
