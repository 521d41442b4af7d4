package testcase

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cftcg/internal/model"
)

func layout() model.Layout {
	return model.Layout{
		Fields: []model.Field{
			{Name: "Enable", Type: model.Int8, Offset: 0},
			{Name: "Power", Type: model.Int32, Offset: 1},
			{Name: "Gain", Type: model.Float64, Offset: 5},
		},
		TupleSize: 13,
	}
}

func TestCSVRoundTripHandBuilt(t *testing.T) {
	lay := layout()
	data := make([]byte, 2*lay.TupleSize)
	model.PutRaw(model.Int8, data[0:], model.EncodeInt(model.Int8, -3))
	model.PutRaw(model.Int32, data[1:], model.EncodeInt(model.Int32, 500000))
	model.PutRaw(model.Float64, data[5:], model.EncodeFloat(model.Float64, 2.25))
	model.PutRaw(model.Int8, data[13:], model.EncodeInt(model.Int8, 1))
	model.PutRaw(model.Int32, data[14:], model.EncodeInt(model.Int32, -7))
	model.PutRaw(model.Float64, data[18:], model.EncodeFloat(model.Float64, -0.5))

	csv := ToCSV(lay, data)
	if !strings.Contains(csv, "step,Enable,Power,Gain") {
		t.Fatalf("header missing:\n%s", csv)
	}
	if !strings.Contains(csv, "0,-3,500000,2.25") || !strings.Contains(csv, "1,1,-7,-0.5") {
		t.Fatalf("rows wrong:\n%s", csv)
	}

	back, err := FromCSV(lay, strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(data) {
		t.Error("round trip not byte-identical")
	}
}

// Property: any byte stream (truncated to whole tuples) survives the
// CSV round trip bit-exactly — floats included, because ToCSV prints with
// full precision.
func TestCSVRoundTripProperty(t *testing.T) {
	lay := layout()
	prop := func(seed int64, tuples uint8) bool {
		n := int(tuples%9) + 1
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, n*lay.TupleSize)
		rng.Read(data)
		// Normalize NaN float payloads: NaN never compares equal and a
		// model would never act on the payload bits beyond NaN-ness.
		for i := 0; i < n; i++ {
			off := i*lay.TupleSize + 5
			f := model.DecodeFloat(model.Float64, model.GetRaw(model.Float64, data[off:]))
			if f != f {
				model.PutRaw(model.Float64, data[off:], model.EncodeFloat(model.Float64, 0))
			}
		}
		csv := ToCSV(lay, data)
		back, err := FromCSV(lay, strings.NewReader(csv))
		if err != nil {
			return false
		}
		return string(back) == string(data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCSVDiscardsTrailingBytes(t *testing.T) {
	lay := layout()
	data := make([]byte, lay.TupleSize+5) // one tuple + garbage
	csv := ToCSV(lay, data)
	lines := strings.Count(strings.TrimSpace(csv), "\n")
	if lines != 1 { // header + 1 row => 1 newline between them
		t.Errorf("want exactly 1 data row, csv:\n%s", csv)
	}
}

func TestFromCSVRejectsBadHeader(t *testing.T) {
	lay := layout()
	if _, err := FromCSV(lay, strings.NewReader("step,Wrong,Power,Gain\n0,1,2,3\n")); err == nil {
		t.Error("wrong column name accepted")
	}
	if _, err := FromCSV(lay, strings.NewReader("step,Enable\n")); err == nil {
		t.Error("missing columns accepted")
	}
	if _, err := FromCSV(lay, strings.NewReader("")); err == nil {
		t.Error("empty CSV accepted")
	}
	if _, err := FromCSV(lay, strings.NewReader("step,Enable,Power,Gain\n0,x,2,3\n")); err == nil {
		t.Error("non-numeric value accepted")
	}
}

func TestWriteSuiteCSV(t *testing.T) {
	lay := layout()
	s := &Suite{
		Model:  "demo",
		Layout: lay,
		Cases: []Case{
			{Data: make([]byte, lay.TupleSize), Metric: 4},
			{Data: make([]byte, 2*lay.TupleSize), Metric: 9},
		},
	}
	var sb strings.Builder
	if err := WriteSuiteCSV(&sb, s); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "# case") != 2 {
		t.Errorf("case separators missing:\n%s", out)
	}
	if !strings.Contains(out, "metric=9") {
		t.Errorf("metric annotation missing:\n%s", out)
	}
}
