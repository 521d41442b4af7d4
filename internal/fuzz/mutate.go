// Package fuzz implements CFTCG's model-oriented fuzzing loop: the
// in-process engine (modeled on LibFuzzer), the eight tuple-wise input
// mutation strategies of Table 1, and the Iteration Difference Coverage
// corpus scheduling of Algorithm 1.
package fuzz

import (
	"math"
	"math/rand"

	"cftcg/internal/model"
)

// Strategy identifies one of the paper's Table 1 mutation strategies.
type Strategy uint8

// The eight model-input mutation strategies (Table 1).
const (
	ChangeBinaryInteger Strategy = iota
	ChangeBinaryFloat
	EraseTuples
	InsertTuple
	InsertRepeatedTuples
	ShuffleTuples
	CopyTuples
	TuplesCrossOver
	numStrategies
)

var strategyNames = [...]string{
	ChangeBinaryInteger:  "ChangeBinaryInteger",
	ChangeBinaryFloat:    "ChangeBinaryFloat",
	EraseTuples:          "EraseTuples",
	InsertTuple:          "InsertTuple",
	InsertRepeatedTuples: "InsertRepeatedTuples",
	ShuffleTuples:        "ShuffleTuples",
	CopyTuples:           "CopyTuples",
	TuplesCrossOver:      "TuplesCrossOver",
}

func (s Strategy) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return "Strategy(?)"
}

// Range bounds the values generated for one input field — the paper's §5
// "value ranges for inports" constraint.
type Range struct {
	Lo, Hi float64
}

// Mutator performs field-wise, tuple-aligned mutations. Unlike a generic
// byte-stream mutator it never misaligns the inport fields: erase/insert/
// shuffle/copy operate on whole tuples, and value mutations target one typed
// field of one tuple.
type Mutator struct {
	rng       *rand.Rand
	fields    []model.Field
	tupleSize int
	maxTuples int

	intFields   []int // indexes of integer/bool fields
	floatFields []int

	// hints holds per-field comparison constants (the §5 "dynamic numerical
	// range constraints", extracted by codegen.FieldHints) that value
	// mutations gravitate toward.
	hints [][]float64
	// ranges holds optional per-field value bounds (§5 tester-specified
	// ranges); generated values are clamped into them.
	ranges []Range
}

// NewMutator builds a mutator for the given tuple layout. maxTuples bounds
// how long mutated inputs may grow (the fuzzer's -max_len analogue).
func NewMutator(fields []model.Field, tupleSize, maxTuples int, rng *rand.Rand) *Mutator {
	m := &Mutator{
		rng:       rng,
		fields:    fields,
		tupleSize: tupleSize,
		maxTuples: maxTuples,
	}
	for i, f := range fields {
		if f.Type.IsFloat() {
			m.floatFields = append(m.floatFields, i)
		} else {
			m.intFields = append(m.intFields, i)
		}
	}
	return m
}

// SetHints installs per-field comparison constants (same indexing as the
// field list) that value generation will target.
func (m *Mutator) SetHints(hints [][]float64) { m.hints = hints }

// SetRanges installs per-field value bounds; nil entries in a shorter slice
// are treated as unbounded.
func (m *Mutator) SetRanges(ranges []Range) { m.ranges = ranges }

// RandomTuple generates one random tuple with field-aware values.
func (m *Mutator) RandomTuple() []byte {
	t := make([]byte, m.tupleSize)
	for i, f := range m.fields {
		model.PutRaw(f.Type, t[f.Offset:], m.randomFieldValue(i, f.Type))
	}
	return t
}

// randomFieldValue draws a value for a specific field: comparison-constant
// hints fire a third of the time, then generic magnitude classes, and the
// result is clamped into the field's declared range.
func (m *Mutator) randomFieldValue(field int, dt model.DType) uint64 {
	if field < len(m.hints) && len(m.hints[field]) > 0 && m.rng.Intn(3) == 0 {
		h := m.hints[field][m.rng.Intn(len(m.hints[field]))]
		// The constant itself, or a neighbour that flips the comparison.
		h += float64(m.rng.Intn(3) - 1)
		return m.clamp(field, dt, model.Encode(dt, h))
	}
	return m.clamp(field, dt, m.randomValue(dt))
}

// clamp folds a raw value into the field's declared range, if any.
func (m *Mutator) clamp(field int, dt model.DType, raw uint64) uint64 {
	if field >= len(m.ranges) {
		return raw
	}
	r := m.ranges[field]
	if r.Lo == 0 && r.Hi == 0 {
		return raw
	}
	v := model.Decode(dt, raw)
	if v < r.Lo {
		return model.Encode(dt, r.Lo)
	}
	if v > r.Hi {
		return model.Encode(dt, r.Hi)
	}
	return raw
}

// randomValue draws a value biased toward interesting magnitudes: small
// integers dominate (opcode-like fields), with occasional extreme values.
func (m *Mutator) randomValue(dt model.DType) uint64 {
	r := m.rng
	if dt.IsFloat() {
		switch r.Intn(4) {
		case 0:
			return model.EncodeFloat(dt, float64(r.Intn(21)-10))
		case 1:
			return model.EncodeFloat(dt, r.NormFloat64()*100)
		case 2:
			return model.EncodeFloat(dt, r.Float64())
		default:
			return model.EncodeFloat(dt, math.Float64frombits(r.Uint64()))
		}
	}
	switch r.Intn(5) {
	case 0:
		return model.EncodeInt(dt, int64(r.Intn(16)))
	case 1:
		return model.EncodeInt(dt, int64(r.Intn(256)-128))
	case 2:
		return model.EncodeInt(dt, int64(r.Intn(1<<16)-(1<<15)))
	case 3:
		return model.EncodeInt(dt, int64(int32(r.Uint32())))
	default:
		return model.EncodeInt(dt, int64(r.Uint64()))
	}
}

// Mutate applies between 1 and 4 stacked strategies to data, borrowing
// tuples from other when crossing over. The input slice is not modified.
func (m *Mutator) Mutate(data, other []byte) []byte {
	out := append([]byte(nil), data...)
	n := 1 + m.rng.Intn(4)
	for i := 0; i < n; i++ {
		out = m.apply(Strategy(m.rng.Intn(int(numStrategies))), out, other)
	}
	if len(out) == 0 {
		out = m.RandomTuple()
	}
	if max := m.maxTuples * m.tupleSize; len(out) > max {
		out = out[:max]
	}
	return out
}

// Apply runs a single named strategy (exported for tests and the Table 1
// micro-benchmarks).
func (m *Mutator) Apply(s Strategy, data, other []byte) []byte {
	return m.apply(s, append([]byte(nil), data...), other)
}

func (m *Mutator) apply(s Strategy, data, other []byte) []byte {
	nt := len(data) / m.tupleSize
	switch s {
	case ChangeBinaryInteger:
		if nt == 0 || len(m.intFields) == 0 {
			return m.apply(InsertTuple, data, other)
		}
		fi := m.intFields[m.rng.Intn(len(m.intFields))]
		f := m.fields[fi]
		off := m.rng.Intn(nt)*m.tupleSize + f.Offset
		m.mutateInt(data[off:off+f.Type.Size()], fi, f.Type)
		return data

	case ChangeBinaryFloat:
		if nt == 0 || len(m.floatFields) == 0 {
			return m.apply(ChangeBinaryInteger, data, other)
		}
		fi := m.floatFields[m.rng.Intn(len(m.floatFields))]
		f := m.fields[fi]
		off := m.rng.Intn(nt)*m.tupleSize + f.Offset
		m.mutateFloat(data[off:off+f.Type.Size()], fi, f.Type)
		return data

	case EraseTuples:
		if nt <= 1 {
			return data
		}
		a := m.rng.Intn(nt)
		span := 1 + m.rng.Intn(nt-a)
		if span == nt {
			span = nt - 1
		}
		return append(data[:a*m.tupleSize], data[(a+span)*m.tupleSize:]...)

	case InsertTuple:
		pos := 0
		if nt > 0 {
			pos = m.rng.Intn(nt + 1)
		}
		t := m.RandomTuple()
		out := make([]byte, 0, len(data)+m.tupleSize)
		out = append(out, data[:pos*m.tupleSize]...)
		out = append(out, t...)
		out = append(out, data[pos*m.tupleSize:]...)
		return out

	case InsertRepeatedTuples:
		var t []byte
		if nt > 0 && m.rng.Intn(2) == 0 {
			src := m.rng.Intn(nt)
			t = append([]byte(nil), data[src*m.tupleSize:(src+1)*m.tupleSize]...)
		} else {
			t = m.RandomTuple()
		}
		k := 1 + m.rng.Intn(16)
		pos := 0
		if nt > 0 {
			pos = m.rng.Intn(nt + 1)
		}
		out := make([]byte, 0, len(data)+k*m.tupleSize)
		out = append(out, data[:pos*m.tupleSize]...)
		for i := 0; i < k; i++ {
			out = append(out, t...)
		}
		out = append(out, data[pos*m.tupleSize:]...)
		return out

	case ShuffleTuples:
		if nt <= 1 {
			return data
		}
		a := m.rng.Intn(nt)
		span := 2 + m.rng.Intn(nt-a)
		if a+span > nt {
			span = nt - a
		}
		idx := m.rng.Perm(span)
		out := append([]byte(nil), data...)
		for i, j := range idx {
			copy(out[(a+i)*m.tupleSize:(a+i+1)*m.tupleSize],
				data[(a+j)*m.tupleSize:(a+j+1)*m.tupleSize])
		}
		return out

	case CopyTuples:
		if nt < 2 {
			return data
		}
		src := m.rng.Intn(nt)
		span := 1 + m.rng.Intn(nt-src)
		dst := m.rng.Intn(nt + 1)
		chunk := append([]byte(nil), data[src*m.tupleSize:(src+span)*m.tupleSize]...)
		out := make([]byte, 0, len(data)+len(chunk))
		out = append(out, data[:dst*m.tupleSize]...)
		out = append(out, chunk...)
		out = append(out, data[dst*m.tupleSize:]...)
		return out

	case TuplesCrossOver:
		if other == nil || len(other) < m.tupleSize {
			return data
		}
		no := len(other) / m.tupleSize
		cutA := 0
		if nt > 0 {
			cutA = m.rng.Intn(nt + 1)
		}
		cutB := m.rng.Intn(no + 1)
		out := make([]byte, 0, cutA*m.tupleSize+(no-cutB)*m.tupleSize)
		out = append(out, data[:cutA*m.tupleSize]...)
		out = append(out, other[cutB*m.tupleSize:no*m.tupleSize]...)
		return out
	}
	return data
}

// mutateInt applies one of the paper's integer sub-strategies: sign-bit
// change, byte swap, bit flip, byte modification, add/subtract, randomize —
// plus a comparison-constant jump when hints exist for the field.
func (m *Mutator) mutateInt(b []byte, field int, dt model.DType) {
	if field < len(m.hints) && len(m.hints[field]) > 0 && m.rng.Intn(4) == 0 {
		h := m.hints[field][m.rng.Intn(len(m.hints[field]))] + float64(m.rng.Intn(3)-1)
		model.PutRaw(dt, b, m.clamp(field, dt, model.Encode(dt, h)))
		return
	}
	raw := model.GetRaw(dt, b)
	v := model.DecodeInt(dt, raw)
	switch m.rng.Intn(6) {
	case 0: // flip sign / top bit
		raw ^= 1 << uint(dt.Size()*8-1)
	case 1: // byte swap
		if dt.Size() >= 2 {
			i, j := m.rng.Intn(dt.Size()), m.rng.Intn(dt.Size())
			b[i], b[j] = b[j], b[i]
			model.PutRaw(dt, b, m.clamp(field, dt, model.GetRaw(dt, b)))
			return
		}
		raw ^= 0xFF
	case 2: // bit flip
		raw ^= 1 << uint(m.rng.Intn(dt.Size()*8))
	case 3: // byte modification
		b[m.rng.Intn(dt.Size())] = byte(m.rng.Intn(256))
		model.PutRaw(dt, b, m.clamp(field, dt, model.GetRaw(dt, b)))
		return
	case 4: // add/subtract a small delta
		raw = model.EncodeInt(dt, v+int64(m.rng.Intn(33)-16))
	default: // random change
		raw = m.randomValue(dt)
	}
	model.PutRaw(dt, b, m.clamp(field, dt, raw))
}

// mutateFloat mutates a float field with awareness of the IEEE layout: sign,
// exponent nudges, mantissa bits, special values, or small arithmetic —
// plus comparison-constant jumps when hints exist.
func (m *Mutator) mutateFloat(b []byte, field int, dt model.DType) {
	if field < len(m.hints) && len(m.hints[field]) > 0 && m.rng.Intn(4) == 0 {
		h := m.hints[field][m.rng.Intn(len(m.hints[field]))]
		switch m.rng.Intn(3) {
		case 0:
			h = math.Nextafter(h, math.Inf(-1))
		case 1:
			h = math.Nextafter(h, math.Inf(1))
		}
		model.PutRaw(dt, b, m.clamp(field, dt, model.EncodeFloat(dt, h)))
		return
	}
	raw := model.GetRaw(dt, b)
	f := model.DecodeFloat(dt, raw)
	switch m.rng.Intn(6) {
	case 0: // sign
		f = -f
	case 1: // scale (exponent nudge)
		f *= math.Pow(2, float64(m.rng.Intn(9)-4))
	case 2: // mantissa bit flip
		bits := model.GetRaw(dt, b)
		mantBits := 52
		if dt == model.Float32 {
			mantBits = 23
		}
		bits ^= 1 << uint(m.rng.Intn(mantBits))
		model.PutRaw(dt, b, m.clamp(field, dt, bits))
		return
	case 3: // special values
		specials := []float64{0, 1, -1, 0.5, 1e6, -1e6, math.MaxFloat32, math.SmallestNonzeroFloat64}
		f = specials[m.rng.Intn(len(specials))]
	case 4: // add/subtract
		f += float64(m.rng.Intn(21) - 10)
	default: // random
		model.PutRaw(dt, b, m.clamp(field, dt, m.randomValue(dt)))
		return
	}
	model.PutRaw(dt, b, m.clamp(field, dt, model.EncodeFloat(dt, f)))
}

// ByteMutator is the generic, structure-blind mutator used by the "Fuzz
// Only" ablation (Figure 8): bit flips, byte edits, and arbitrary-length
// inserts/deletes that freely misalign the tuple layout.
type ByteMutator struct {
	rng    *rand.Rand
	maxLen int
}

// NewByteMutator builds the ablation mutator.
func NewByteMutator(maxLen int, rng *rand.Rand) *ByteMutator {
	return &ByteMutator{rng: rng, maxLen: maxLen}
}

// Mutate applies 1-4 stacked generic byte mutations.
func (m *ByteMutator) Mutate(data, other []byte) []byte {
	out := append([]byte(nil), data...)
	n := 1 + m.rng.Intn(4)
	for i := 0; i < n; i++ {
		out = m.apply(out, other)
	}
	if len(out) == 0 {
		out = []byte{byte(m.rng.Intn(256))}
	}
	if len(out) > m.maxLen {
		out = out[:m.maxLen]
	}
	return out
}

func (m *ByteMutator) apply(data, other []byte) []byte {
	r := m.rng
	switch r.Intn(6) {
	case 0: // bit flip
		if len(data) == 0 {
			return data
		}
		data[r.Intn(len(data))] ^= 1 << uint(r.Intn(8))
		return data
	case 1: // byte set
		if len(data) == 0 {
			return data
		}
		data[r.Intn(len(data))] = byte(r.Intn(256))
		return data
	case 2: // delete a random span (any length — misaligns tuples)
		if len(data) < 2 {
			return data
		}
		a := r.Intn(len(data))
		span := 1 + r.Intn(len(data)-a)
		return append(data[:a], data[a+span:]...)
	case 3: // insert random bytes (any length)
		k := 1 + r.Intn(8)
		pos := r.Intn(len(data) + 1)
		ins := make([]byte, k)
		for i := range ins {
			ins[i] = byte(r.Intn(256))
		}
		out := make([]byte, 0, len(data)+k)
		out = append(out, data[:pos]...)
		out = append(out, ins...)
		out = append(out, data[pos:]...)
		return out
	case 4: // arithmetic on a byte
		if len(data) == 0 {
			return data
		}
		data[r.Intn(len(data))] += byte(r.Intn(33) - 16)
		return data
	default: // byte-level crossover
		if len(other) == 0 {
			return data
		}
		cutA := r.Intn(len(data) + 1)
		cutB := r.Intn(len(other))
		out := make([]byte, 0, cutA+len(other)-cutB)
		out = append(out, data[:cutA]...)
		out = append(out, other[cutB:]...)
		return out
	}
}
