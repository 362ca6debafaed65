package exec

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"powerdrill/internal/value"
)

func samplePartial() *Partial {
	return &Partial{
		Columns: []string{"country", "sum(f)", "cnt"},
		Stats: QueryStats{
			ChunksTotal: 7, ChunksScanned: 3, RowsScanned: 1000,
			RowsTotal: 5000, RowsCovered: 5000, ShardsMissing: 1,
		},
		Groups: []PartialGroup{
			{
				Keys: []value.Value{value.String("ch"), value.Int64(3)},
				Cells: []PartialCell{
					{Count: 12, SumI: 40, SumIsInt: true, Min: value.Int64(-3), Max: value.Int64(9)},
					{Count: 12, SumF: 1.5, SumFParts: []float64{0.25, 1.25}, Sketch: []byte{1, 2, 3}},
				},
			},
			{
				Keys: []value.Value{value.Float64(math.Inf(-1)), value.Value{}},
				Cells: []PartialCell{
					{Count: 1, SumF: math.Copysign(0, -1), SumFParts: []float64{math.Copysign(0, -1)}},
					{Min: value.String("a"), Max: value.String("z")},
				},
			},
		},
	}
}

func TestWireRoundTrip(t *testing.T) {
	p := samplePartial()
	got, err := DecodePartial(EncodePartial(p))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", p, got)
	}
}

// TestWireStatsCoversEveryField fills every QueryStats field with a
// distinct value via reflection and asserts the codec carries all of
// them — a new counter added to QueryStats but not to
// statsCounters/setStatsCounters fails here.
func TestWireStatsCoversEveryField(t *testing.T) {
	var qs QueryStats
	v := reflect.ValueOf(&qs).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(100 + i))
	}
	p := &Partial{Stats: qs}
	got, err := DecodePartial(EncodePartial(p))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Stats != qs {
		t.Fatalf("stats dropped in transit:\n in  %+v\n out %+v", qs, got.Stats)
	}
	if n := len(statsCounters(&qs)); n != v.NumField() {
		t.Fatalf("statsCounters lists %d counters, QueryStats has %d fields", n, v.NumField())
	}
}

func TestWireVersionGate(t *testing.T) {
	enc := EncodePartial(samplePartial())
	enc[0] = PartialWireVersion + 1
	if _, err := DecodePartial(enc); err == nil {
		t.Fatal("decoding a future version succeeded; want loud failure")
	}
	if _, err := DecodePartial(nil); err == nil {
		t.Fatal("decoding empty payload succeeded")
	}
}

// TestWireTruncationSafe decodes every strict prefix of a valid encoding:
// all must fail with an error, none may panic or succeed.
func TestWireTruncationSafe(t *testing.T) {
	enc := EncodePartial(samplePartial())
	for n := 1; n < len(enc); n++ {
		if _, err := DecodePartial(enc[:n]); err == nil {
			t.Fatalf("decoding %d/%d byte prefix succeeded", n, len(enc))
		}
	}
}

// TestSumFloatTopologyInvariant checks the canonical fold: however the
// per-leaf parts are grouped into intermediate merges, the root's float
// total is bit-for-bit identical.
func TestSumFloatTopologyInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(14)
		parts := make([]float64, n)
		for i := range parts {
			// Wide magnitude spread makes float addition visibly
			// non-associative, which is the point of the canonical fold.
			parts[i] = math.Ldexp(rng.Float64()*2-1, rng.Intn(80)-40)
		}
		flat := PartialCell{SumFParts: append([]float64(nil), parts...)}
		want := math.Float64bits(flat.sumFloat())

		// A random two-level tree over the same parts.
		tree := PartialCell{}
		for i := 0; i < n; {
			w := 1 + rng.Intn(4)
			if i+w > n {
				w = n - i
			}
			inner := PartialCell{SumFParts: append([]float64(nil), parts[i:i+w]...)}
			if err := tree.merge(&inner); err != nil {
				t.Fatal(err)
			}
			i += w
		}
		if got := math.Float64bits(tree.sumFloat()); got != want {
			t.Fatalf("trial %d: tree fold %x != flat fold %x", trial, got, want)
		}
	}
}

// hugeCountPayloads are tiny payloads whose group, key, cell, float-part or
// sketch counts claim far more than they hold.
func hugeCountPayloads() [][]byte {
	huge := binary.AppendUvarint(nil, 1<<62)
	head := []byte{PartialWireVersion, 0, 0} // no columns, no counters
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return [][]byte{
		cat(head, huge),               // #groups
		cat(head, []byte{1}, huge),    // #keys
		cat(head, []byte{1, 0}, huge), // #cells
		cat(head, []byte{1, 0, 1, 0, 0, 0}, make([]byte, 8), huge),            // #SumFParts
		cat(head, []byte{1, 0, 1, 0, 0, 0}, make([]byte, 8), []byte{0}, huge), // #Sketch
		cat([]byte{PartialWireVersion}, huge),                                 // #columns
		cat([]byte{PartialWireVersion, 0}, huge),                              // #counters
	}
}

// allocatedBytes reports the bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// maxDecodeAlloc bounds what decoding n payload bytes may allocate: slabs
// are sized by what the payload can still encode, never by a claimed count.
func maxDecodeAlloc(n int) uint64 { return uint64(1024*n + 1<<20) }

func TestDecodeHugeCountsBounded(t *testing.T) {
	for i, data := range hugeCountPayloads() {
		var err error
		if got := allocatedBytes(func() { _, err = DecodePartial(data) }); got > maxDecodeAlloc(len(data)) {
			t.Errorf("payload %d (%d bytes) allocated %d bytes", i, len(data), got)
		}
		if err == nil {
			t.Errorf("payload %d decoded; want an error", i)
		}
	}
}

// FuzzDecodePartial feeds arbitrary bytes to the decoder: it must never
// panic or allocate out of proportion to the payload, and whatever it
// accepts must survive an encode/decode round trip unchanged.
func FuzzDecodePartial(f *testing.F) {
	f.Add(EncodePartial(samplePartial()))
	f.Add(EncodePartial(&Partial{}))
	for _, data := range hugeCountPayloads() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p *Partial
		var err error
		if got := allocatedBytes(func() { p, err = DecodePartial(data) }); got > maxDecodeAlloc(len(data)) {
			t.Fatalf("%d-byte payload allocated %d bytes", len(data), got)
		}
		if err != nil {
			return
		}
		enc := EncodePartial(p)
		back, err := DecodePartial(enc)
		if err != nil {
			t.Fatalf("re-decoding an encoded partial: %v", err)
		}
		// Formatting compares NaN fields as equal, which DeepEqual would
		// not; the re-encoding compares every bit.
		if fmt.Sprintf("%#v", back) != fmt.Sprintf("%#v", p) || !bytes.Equal(EncodePartial(back), enc) {
			t.Fatalf("round trip changed the partial:\n in  %#v\n out %#v", p, back)
		}
	})
}
