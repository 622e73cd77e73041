package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"fsr/internal/ring"
)

func sampleFrame() *Frame {
	return &Frame{
		ViewID: 7,
		Data: []DataItem{
			{ID: MsgID{Origin: 3, Local: 42}, Seq: 0, Part: 0, Parts: 3, Body: []byte("hello")},
			{ID: MsgID{Origin: 1, Local: 1}, Seq: 99, Part: 2, Parts: 3, Body: []byte{}},
		},
		Acks: []AckItem{
			{ID: MsgID{Origin: 2, Local: 5}, Seq: 17, Hops: 4, Stable: true},
			{ID: MsgID{Origin: 9, Local: 0}, Seq: 18, Hops: 0, Stable: false},
		},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := sampleFrame()
	buf := EncodeFrame(f)
	if buf[0] != KindFSR {
		t.Fatalf("kind byte = %d, want %d", buf[0], KindFSR)
	}
	got, err := DecodeFrame(buf)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if got.ViewID != f.ViewID || len(got.Data) != 2 || len(got.Acks) != 2 {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range f.Data {
		if got.Data[i].ID != f.Data[i].ID || got.Data[i].Seq != f.Data[i].Seq ||
			got.Data[i].Part != f.Data[i].Part || got.Data[i].Parts != f.Data[i].Parts ||
			!bytes.Equal(got.Data[i].Body, f.Data[i].Body) {
			t.Errorf("data[%d] mismatch: got %+v want %+v", i, got.Data[i], f.Data[i])
		}
	}
	if !reflect.DeepEqual(got.Acks, f.Acks) {
		t.Errorf("acks mismatch: got %+v want %+v", got.Acks, f.Acks)
	}
}

func TestEncodedSizeExact(t *testing.T) {
	frames := []*Frame{
		{},
		{ViewID: 1},
		sampleFrame(),
		{Acks: []AckItem{{ID: MsgID{1, 2}, Seq: 3, Hops: 4}}},
		{Data: []DataItem{{ID: MsgID{1, 2}, Body: make([]byte, 8192)}}},
	}
	for i, f := range frames {
		if got, want := len(EncodeFrame(f)), f.EncodedSize(); got != want {
			t.Errorf("frame %d: len(encode)=%d EncodedSize=%d", i, got, want)
		}
	}
}

func TestDecodeEmptyFrame(t *testing.T) {
	f := &Frame{ViewID: 12}
	got, err := DecodeFrame(EncodeFrame(f))
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if got.ViewID != 12 || len(got.Data) != 0 || len(got.Acks) != 0 {
		t.Errorf("got %+v", got)
	}
}

func TestDecodeRejectsWrongKind(t *testing.T) {
	buf := EncodeFrame(sampleFrame())
	buf[0] = KindVSC
	if _, err := DecodeFrame(buf); err == nil {
		t.Error("wrong kind accepted")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	buf := EncodeFrame(sampleFrame())
	// Every proper prefix must fail cleanly, never panic.
	for i := 0; i < len(buf); i++ {
		if _, err := DecodeFrame(buf[:i]); err == nil {
			t.Fatalf("truncated prefix of %d bytes accepted", i)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	buf := append(EncodeFrame(sampleFrame()), 0xAB)
	if _, err := DecodeFrame(buf); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestDecodeRejectsOverlongBodyLen(t *testing.T) {
	f := &Frame{Data: []DataItem{{Body: []byte("abc")}}}
	buf := EncodeFrame(f)
	// Patch bodyLen (last u32 before the body) to a huge value.
	bodyLenOff := len(buf) - 3 - 4
	buf[bodyLenOff] = 0xFF
	buf[bodyLenOff+1] = 0xFF
	buf[bodyLenOff+2] = 0xFF
	buf[bodyLenOff+3] = 0x7F
	if _, err := DecodeFrame(buf); err == nil {
		t.Error("overlong body length accepted")
	}
}

func randFrame(rng *rand.Rand) *Frame {
	f := &Frame{ViewID: rng.Uint64()}
	for range rng.Intn(4) {
		body := make([]byte, rng.Intn(64))
		rng.Read(body)
		f.Data = append(f.Data, DataItem{
			ID:    MsgID{Origin: ring.ProcID(rng.Uint32()), Local: rng.Uint64()},
			Seq:   rng.Uint64(),
			Part:  rng.Uint32(),
			Parts: rng.Uint32(),
			Body:  body,
		})
	}
	for range rng.Intn(6) {
		f.Acks = append(f.Acks, AckItem{
			ID:     MsgID{Origin: ring.ProcID(rng.Uint32()), Local: rng.Uint64()},
			Seq:    rng.Uint64(),
			Hops:   rng.Uint32(),
			Stable: rng.Intn(2) == 1,
		})
	}
	return f
}

// TestRoundTripQuick property-checks encode/decode identity on random frames.
func TestRoundTripQuick(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f := randFrame(rng)
		got, err := DecodeFrame(EncodeFrame(f))
		if err != nil {
			return false
		}
		if got.ViewID != f.ViewID || len(got.Data) != len(f.Data) || len(got.Acks) != len(f.Acks) {
			return false
		}
		for i := range f.Data {
			if got.Data[i].ID != f.Data[i].ID || got.Data[i].Seq != f.Data[i].Seq ||
				got.Data[i].Part != f.Data[i].Part || got.Data[i].Parts != f.Data[i].Parts ||
				!bytes.Equal(got.Data[i].Body, f.Data[i].Body) {
				return false
			}
		}
		for i := range f.Acks {
			if got.Acks[i] != f.Acks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDecodeRandomGarbage feeds random bytes to the decoder; it must never
// panic (errors are fine).
func TestDecodeRandomGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		buf := make([]byte, rng.Intn(128))
		rng.Read(buf)
		if len(buf) > 0 {
			buf[0] = KindFSR // get past the kind check sometimes
		}
		_, _ = DecodeFrame(buf) //nolint:errcheck // asserting no panic only
	}
}

func BenchmarkEncodeFrame8K(b *testing.B) {
	f := &Frame{
		ViewID: 1,
		Data:   []DataItem{{ID: MsgID{1, 1}, Seq: 5, Parts: 13, Body: make([]byte, 8192)}},
		Acks:   []AckItem{{ID: MsgID{2, 9}, Seq: 4, Hops: 3, Stable: true}},
	}
	b.ReportAllocs()
	b.SetBytes(int64(f.EncodedSize()))
	for range b.N {
		EncodeFrame(f)
	}
}

func BenchmarkDecodeFrame8K(b *testing.B) {
	f := &Frame{
		ViewID: 1,
		Data:   []DataItem{{ID: MsgID{1, 1}, Seq: 5, Parts: 13, Body: make([]byte, 8192)}},
	}
	buf := EncodeFrame(f)
	b.ReportAllocs()
	b.SetBytes(int64(len(buf)))
	for range b.N {
		if _, err := DecodeFrame(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCatchupReqRoundTrip(t *testing.T) {
	q := &CatchupReq{After: 41, UpTo: 977}
	got, err := DecodeCatchup(EncodeCatchupReq(q))
	if err != nil {
		t.Fatal(err)
	}
	dq, ok := got.(*CatchupReq)
	if !ok {
		t.Fatalf("decoded %T, want *CatchupReq", got)
	}
	if *dq != *q {
		t.Fatalf("round trip: %+v != %+v", dq, q)
	}
}

func TestCatchupRespRoundTrip(t *testing.T) {
	cases := []*CatchupResp{
		{Unavailable: true},
		{More: true, Entries: []ClientEventEntry{
			{Seq: 7, Origin: 2, Logical: 99, Payload: []byte("abc")},
			{Seq: 9, Origin: 3, Logical: 100, Payload: nil},
		}},
		{HasSnapshot: true, SnapSeq: 500, Snapshot: []byte("kv-state"),
			Entries: []ClientEventEntry{{Seq: 501, Origin: 1, Logical: 4, Payload: []byte("x")}}},
		{},
	}
	for i, p := range cases {
		got, err := DecodeCatchup(EncodeCatchupResp(p))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		dp, ok := got.(*CatchupResp)
		if !ok {
			t.Fatalf("case %d: decoded %T", i, got)
		}
		if dp.Unavailable != p.Unavailable || dp.HasSnapshot != p.HasSnapshot ||
			dp.More != p.More || dp.SnapSeq != p.SnapSeq ||
			!bytes.Equal(dp.Snapshot, p.Snapshot) || len(dp.Entries) != len(p.Entries) {
			t.Fatalf("case %d: %+v != %+v", i, dp, p)
		}
		for j := range p.Entries {
			w, g := p.Entries[j], dp.Entries[j]
			if g.Seq != w.Seq || g.Origin != w.Origin || g.Logical != w.Logical ||
				!bytes.Equal(g.Payload, w.Payload) {
				t.Fatalf("case %d entry %d: %+v != %+v", i, j, g, w)
			}
		}
	}
}

func TestCatchupDecodeRejectsMalformed(t *testing.T) {
	good := EncodeCatchupResp(&CatchupResp{Entries: []ClientEventEntry{
		{Seq: 1, Origin: 1, Logical: 1, Payload: []byte("p")},
	}})
	// Every strict prefix must fail cleanly, never panic.
	for i := 0; i < len(good); i++ {
		if _, err := DecodeCatchup(good[:i]); err == nil {
			t.Fatalf("prefix of %d bytes decoded", i)
		}
	}
	if _, err := DecodeCatchup(append(slices.Clone(good), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	if _, err := DecodeCatchup([]byte{KindFSR, 1}); err == nil {
		t.Fatal("wrong kind accepted")
	}
	if _, err := DecodeCatchup([]byte{KindCatchup, 9}); err == nil {
		t.Fatal("unknown type accepted")
	}
	// A forged entry count must not cause a giant allocation or a panic.
	forged := []byte{KindCatchup, 2, 0}
	forged = binary.LittleEndian.AppendUint32(forged, 0xFFFFFFFF)
	if _, err := DecodeCatchup(forged); err == nil {
		t.Fatal("forged count accepted")
	}
}
