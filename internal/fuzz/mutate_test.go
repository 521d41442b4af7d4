package fuzz

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"cftcg/internal/benchmodels"
	"cftcg/internal/codegen"
	"cftcg/internal/model"
)

func testFields() []model.Field {
	return []model.Field{
		{Name: "a", Type: model.Int8, Offset: 0},
		{Name: "b", Type: model.Int32, Offset: 1},
		{Name: "c", Type: model.Float64, Offset: 5},
	}
}

const testTuple = 13

// Property: every Table 1 strategy preserves tuple alignment — the output
// length is always a whole number of tuples. This is exactly the property
// the paper's Figure 8 analysis says generic byte mutation violates.
func TestStrategiesPreserveAlignment(t *testing.T) {
	prop := func(seed int64, nData, nOther uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mut := NewMutator(testFields(), testTuple, 64, rng)
		data := make([]byte, int(nData%20)*testTuple)
		other := make([]byte, int(nOther%20)*testTuple)
		rng.Read(data)
		rng.Read(other)
		for s := ChangeBinaryInteger; s <= TuplesCrossOver; s++ {
			out := mut.Apply(s, data, other)
			if len(out)%testTuple != 0 {
				t.Logf("strategy %s misaligned: %d bytes", s, len(out))
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Mutate never exceeds the tuple cap and never returns empty.
func TestMutateRespectsCap(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		mut := NewMutator(testFields(), testTuple, 8, rng)
		data := make([]byte, int(n%16)*testTuple)
		rng.Read(data)
		out := mut.Mutate(data, data)
		return len(out) > 0 && len(out) <= 8*testTuple && len(out)%testTuple == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Apply does not modify its input slice (copy-on-write).
func TestApplyDoesNotMutateInput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mut := NewMutator(testFields(), testTuple, 64, rng)
	data := make([]byte, 5*testTuple)
	rng.Read(data)
	orig := append([]byte(nil), data...)
	for s := ChangeBinaryInteger; s <= TuplesCrossOver; s++ {
		for i := 0; i < 50; i++ {
			mut.Apply(s, data, orig)
		}
	}
	if string(data) != string(orig) {
		t.Error("Apply mutated the input slice")
	}
}

// ChangeBinaryInteger must only touch the targeted field's bytes within one
// tuple (field-wise mutation, Table 1).
func TestChangeIntegerIsFieldLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	mut := NewMutator(testFields(), testTuple, 64, rng)
	for trial := 0; trial < 200; trial++ {
		data := make([]byte, 4*testTuple)
		rng.Read(data)
		before := append([]byte(nil), data...)
		out := mut.Apply(ChangeBinaryInteger, data, nil)
		if len(out) != len(before) {
			continue // fell back to insert (no int fields would be absurd here)
		}
		diff := 0
		for i := range out {
			if out[i] != before[i] {
				diff++
			}
		}
		// int8 (1 byte) or int32 (4 bytes) fields only.
		if diff > 4 {
			t.Fatalf("trial %d: %d bytes changed, expected <= 4", trial, diff)
		}
	}
}

func TestRandomTupleLength(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mut := NewMutator(testFields(), testTuple, 64, rng)
	buf := []byte{0xAA}
	for i := 0; i < 100; i++ {
		buf = mut.appendRandomTuple(buf[:1])
		if got := len(buf) - 1; got != testTuple || buf[0] != 0xAA {
			t.Fatalf("random tuple length %d, prefix %#x", got, buf[0])
		}
	}
}

// The byte-level ablation mutator may misalign tuples — that is its point —
// but it must respect its length cap and never return empty.
func TestByteMutatorCap(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		bm := NewByteMutator(100, rng)
		data := make([]byte, int(n%120))
		rng.Read(data)
		out := bm.Mutate(data, data)
		return len(out) > 0 && len(out) <= 100
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestByteMutatorMisalignsEventually(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	bm := NewByteMutator(1024, rng)
	data := make([]byte, 4*testTuple)
	misaligned := false
	for i := 0; i < 200 && !misaligned; i++ {
		out := bm.Mutate(data, data)
		if len(out)%testTuple != 0 {
			misaligned = true
		}
	}
	if !misaligned {
		t.Error("byte mutator never misaligned tuples — ablation would be meaningless")
	}
}

func TestStrategyNames(t *testing.T) {
	want := []string{
		"ChangeBinaryInteger", "ChangeBinaryFloat", "EraseTuples", "InsertTuple",
		"InsertRepeatedTuples", "ShuffleTuples", "CopyTuples", "TuplesCrossOver",
	}
	for i, w := range want {
		if Strategy(i).String() != w {
			t.Errorf("strategy %d: %s, want %s", i, Strategy(i), w)
		}
	}
}

// EraseTuples must never erase everything (it keeps at least one tuple).
func TestEraseKeepsSomething(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	mut := NewMutator(testFields(), testTuple, 64, rng)
	for i := 0; i < 300; i++ {
		data := make([]byte, (1+rng.Intn(6))*testTuple)
		out := mut.Apply(EraseTuples, data, nil)
		if len(data) > testTuple && len(out) == 0 {
			t.Fatal("EraseTuples removed every tuple")
		}
	}
}

// refMutator is the mutator as it was before it reused its buffers: every
// strategy builds a fresh slice. It is kept as the oracle of the buffered
// one, and shares only the value-level helpers (mutateInt, mutateFloat,
// randomFieldValue), which the buffering did not touch.
type refMutator struct{ *Mutator }

func (m refMutator) randomTuple() []byte {
	t := make([]byte, m.tupleSize)
	for i, f := range m.fields {
		model.PutRaw(f.Type, t[f.Offset:], m.randomFieldValue(i, f.Type))
	}
	return t
}

func (m refMutator) Mutate(data, other []byte) []byte {
	out := append([]byte(nil), data...)
	n := 1 + m.rng.Intn(4)
	for i := 0; i < n; i++ {
		out = m.apply(Strategy(m.rng.Intn(int(numStrategies))), out, other)
	}
	if len(out) == 0 {
		out = m.randomTuple()
	}
	if max := m.maxTuples * m.tupleSize; len(out) > max {
		out = out[:max]
	}
	return out
}

func (m refMutator) apply(s Strategy, data, other []byte) []byte {
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
		t := m.randomTuple()
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
			t = m.randomTuple()
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

// refByteMutator is the allocating ByteMutator, the oracle of the buffered
// one.
type refByteMutator struct{ *ByteMutator }

func (m refByteMutator) Mutate(data, other []byte) []byte {
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

func (m refByteMutator) apply(data, other []byte) []byte {
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
	case 2: // delete a random span
		if len(data) < 2 {
			return data
		}
		a := r.Intn(len(data))
		span := 1 + r.Intn(len(data)-a)
		return append(data[:a], data[a+span:]...)
	case 3: // insert random bytes
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

// mutationPool is a small rolling corpus the mutator oracles draw parents
// and crossover partners from, as the engine draws them from its corpus.
type mutationPool struct {
	rng     *rand.Rand
	entries [][]byte
}

func (p *mutationPool) draw() []byte { return p.entries[p.rng.Intn(len(p.entries))] }

// keep stores a copy of in, replacing a random entry once the pool is full.
func (p *mutationPool) keep(in []byte) {
	in = append([]byte(nil), in...)
	if len(p.entries) < 16 {
		p.entries = append(p.entries, in)
		return
	}
	p.entries[p.rng.Intn(len(p.entries))] = in
}

// TestBufferedMutatorMatchesReference runs the buffered mutator and the
// allocating reference side by side on every benchmark model's tuple layout,
// seeds 1-5, with and without field hints and ranges: 10,000 stacked
// mutations each, every output fed back into the pool. Both must return the
// same bytes, and their generators must give the same next draw, after every
// mutation. A tenth of the steps go through Apply with a random strategy,
// and a tenth through the public Mutate, whose result must stay intact
// across the next call.
func TestBufferedMutatorMatchesReference(t *testing.T) {
	for _, name := range benchmodels.Names() {
		c := benchCompiled(t, name)
		fields, tuple := c.Prog.In, c.Prog.TupleSize()
		ranges := make([]Range, len(fields))
		for i := range ranges {
			if i%2 == 0 {
				ranges[i] = Range{Lo: -20, Hi: 300}
			}
		}
		for seed := int64(1); seed <= 5; seed++ {
			for _, guided := range []bool{false, true} {
				maxTuples := []int{4, 64}[seed%2]
				got := NewMutator(fields, tuple, maxTuples, rand.New(rand.NewSource(seed)))
				ref := refMutator{NewMutator(fields, tuple, maxTuples, rand.New(rand.NewSource(seed)))}
				if guided {
					for _, m := range []*Mutator{got, ref.Mutator} {
						m.SetHints(codegen.FieldHints(c.Prog))
						m.SetRanges(ranges)
					}
				}
				pool := &mutationPool{rng: rand.New(rand.NewSource(-seed)), entries: [][]byte{nil}}
				var kept, keptCopy []byte
				for i := 0; i < 10000; i++ {
					parent, other := pool.draw(), pool.draw()
					var out, want []byte
					switch i % 10 {
					case 0:
						s := Strategy(pool.rng.Intn(int(numStrategies)))
						out = got.Apply(s, parent, other)
						want = ref.apply(s, append([]byte(nil), parent...), other)
					case 1:
						out = got.Mutate(parent, other)
						want = ref.Mutate(parent, other)
						kept, keptCopy = out, append([]byte(nil), out...)
					default:
						out = got.mutate(parent, other)
						want = ref.Mutate(parent, other)
					}
					if !bytes.Equal(out, want) {
						t.Fatalf("%s seed %d guided %v step %d: buffered %x, reference %x",
							name, seed, guided, i, out, want)
					}
					if g, w := got.rng.Int63(), ref.rng.Int63(); g != w {
						t.Fatalf("%s seed %d guided %v step %d: next draw %d, reference %d",
							name, seed, guided, i, g, w)
					}
					if !bytes.Equal(kept, keptCopy) {
						t.Fatalf("%s seed %d step %d: a later mutation overwrote Mutate's result", name, seed, i)
					}
					pool.keep(out)
				}
			}
		}
	}
}

// TestBufferedByteMutatorMatchesReference is the same check for the
// fuzz-only ablation's byte mutator.
func TestBufferedByteMutatorMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		maxLen := []int{13, 100, 1024}[seed%3]
		got := NewByteMutator(maxLen, rand.New(rand.NewSource(seed)))
		ref := refByteMutator{NewByteMutator(maxLen, rand.New(rand.NewSource(seed)))}
		pool := &mutationPool{rng: rand.New(rand.NewSource(-seed)), entries: [][]byte{nil}}
		for i := 0; i < 10000; i++ {
			parent, other := pool.draw(), pool.draw()
			var out []byte
			if i%10 == 0 {
				out = got.Mutate(parent, other)
			} else {
				out = got.mutate(parent, other)
			}
			if want := ref.Mutate(parent, other); !bytes.Equal(out, want) {
				t.Fatalf("seed %d step %d: buffered %x, reference %x", seed, i, out, want)
			}
			if g, w := got.rng.Int63(), ref.rng.Int63(); g != w {
				t.Fatalf("seed %d step %d: next draw %d, reference %d", seed, i, g, w)
			}
			pool.keep(out)
		}
	}
}
