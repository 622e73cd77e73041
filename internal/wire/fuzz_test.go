package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"fsr/internal/ring"
)

// FuzzDecodeFrame throws arbitrary bytes at every decoder the node routes
// transport payloads to — ring frames, the catch-up request/response codec
// and the client sub-protocol. Decoding untrusted input must never panic
// (errors are fine); a crash here would let one corrupt peer take down the
// whole group. A catch-up or client message that decodes must also survive
// a re-encode unchanged.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(EncodeFrame(sampleFrame()))
	f.Add(EncodeFrame(&Frame{ViewID: 1}))
	// A batched hot-path frame as the live engine now emits it: several
	// data segments per frame (relayed pass-B traffic of distinct origins,
	// a multi-part message straddling the batch, one pass-A segment) plus
	// piggybacked acks. Before engine-side batching the corpus never saw a
	// frame with more than one DataItem coming from real traffic.
	f.Add(EncodeFrame(&Frame{
		ViewID: 4,
		Data: []DataItem{
			{ID: MsgID{Origin: 2, Local: 11}, Seq: 31, Part: 0, Parts: 1, Body: []byte("relay-b")},
			{ID: MsgID{Origin: 3, Local: 7}, Seq: 32, Part: 0, Parts: 3, Body: []byte("part-0")},
			{ID: MsgID{Origin: 3, Local: 8}, Seq: 33, Part: 1, Parts: 3, Body: []byte("part-1")},
			{ID: MsgID{Origin: 3, Local: 9}, Seq: 34, Part: 2, Parts: 3, Body: []byte("part-2")},
			{ID: MsgID{Origin: 5, Local: 0}, Seq: 0, Part: 0, Parts: 1, Body: []byte("pass-a")},
		},
		Acks: []AckItem{
			{ID: MsgID{Origin: 2, Local: 10}, Seq: 30, Hops: 4, Stable: true},
			{ID: MsgID{Origin: 4, Local: 2}, Seq: 29, Hops: 1, Stable: false},
		},
	}))
	f.Add(EncodeCatchupReq(&CatchupReq{After: 10, UpTo: 500}))
	f.Add(EncodeCatchupResp(&CatchupResp{Unavailable: true}))
	f.Add(EncodeCatchupResp(&CatchupResp{
		HasSnapshot: true,
		SnapSeq:     77,
		Snapshot:    []byte("snapshot-bytes"),
		More:        true,
		Entries: []ClientEventEntry{
			{Seq: 78, Origin: 4, Logical: 12, Payload: []byte("entry")},
		},
	}))
	// Client sub-protocol corpus: every message type a member or client
	// routes through DecodeClient, plus forged-count shapes.
	f.Add(EncodeClientHello(&ClientHello{MaxEventBytes: 1 << 16}))
	f.Add(EncodeClientPublish(&ClientPublish{PubID: 3, Payload: []byte("pub")}))
	f.Add(EncodeClientPubAck(&ClientPubAck{PubID: 3, Seq: 41}))
	f.Add(EncodeClientSubscribe(&ClientSubscribe{SubID: 1, From: 7}))
	f.Add(EncodeClientEvent(&ClientEvent{Sub: 1, Entries: []ClientEventEntry{
		{Seq: 8, Origin: 1<<31 + 9, Logical: 2, Payload: []byte("ev")},
	}}))
	f.Add(EncodeClientEvent(&ClientEvent{Sub: 1, HasSnapshot: true, SnapSeq: 6, Snapshot: []byte("snap")}))
	f.Add(EncodeClientRedirect(&ClientRedirect{Reason: RedirectView, Applied: 10, Members: []ring.ProcID{1, 2, 3}}))
	f.Add([]byte{KindClient, clientEvent, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{KindFSR})
	f.Add([]byte{KindCatchup, 2, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})
	// Version-skew corpus: frames stamped with a future minor (must decode)
	// and a future major (must be refused as ErrVersion, not crash), plus
	// the bare two-byte prefix of each.
	futureMinor := EncodeFrame(sampleFrame())
	futureMinor[1] = MakeVersion(ProtoMajor, 15)
	f.Add(futureMinor)
	futureMajor := EncodeFrame(sampleFrame())
	futureMajor[1] = MakeVersion(ProtoMajor+1, 0)
	f.Add(futureMajor)
	f.Add([]byte{KindFSR, MakeVersion(ProtoMajor+1, 3)})
	// A 1.0-era HELLO and welcome: no trailing version byte.
	oldHello := EncodeClientHello(&ClientHello{MaxEventBytes: 1 << 16})
	f.Add(oldHello[:len(oldHello)-1])
	oldWelcome := EncodeClientRedirect(&ClientRedirect{Reason: RedirectWelcome, Applied: 5})
	f.Add(oldWelcome[:len(oldWelcome)-1])
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeFrame(b)
		if err == nil && fr == nil {
			t.Fatal("DecodeFrame: nil frame without error")
		}
		// The pooled decoder must agree with the allocating one on both
		// acceptance and content, including when reusing a dirty frame.
		reused := GetFrame()
		err2 := DecodeFrameInto(reused, b)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("DecodeFrame err=%v, DecodeFrameInto err=%v", err, err2)
		}
		if err == nil {
			if fr.ViewID != reused.ViewID || len(fr.Data) != len(reused.Data) || len(fr.Acks) != len(reused.Acks) {
				t.Fatalf("decoders disagree: %+v vs %+v", fr, reused)
			}
			// Compare item contents too: the dirty-frame-reuse bugs
			// DecodeFrameInto risks are exactly stale fields/bodies
			// surviving with matching counts.
			for i := range fr.Data {
				a, c := &fr.Data[i], &reused.Data[i]
				if a.ID != c.ID || a.Seq != c.Seq || a.Part != c.Part ||
					a.Parts != c.Parts || !bytes.Equal(a.Body, c.Body) {
					t.Fatalf("data[%d] disagree: %+v vs %+v", i, a, c)
				}
			}
			for i := range fr.Acks {
				if fr.Acks[i] != reused.Acks[i] {
					t.Fatalf("ack[%d] disagree: %+v vs %+v", i, fr.Acks[i], reused.Acks[i])
				}
			}
		}
		PutFrame(reused)
		for _, decode := range []func([]byte) (any, error){DecodeCatchup, DecodeClient} {
			m, err := decode(b)
			if err != nil {
				continue
			}
			if m == nil {
				t.Fatal("nil message without error")
			}
			// What a decoder accepts, its encoder writes back the same:
			// re-encoded and decoded again, the message is unchanged.
			again, err := decode(reencode(m))
			if err != nil {
				t.Fatalf("re-encoded %T refused: %v", m, err)
			}
			if h, ok := m.(*ClientHello); ok && h.Version == 0 {
				h.Version = CurrentVersion // encoders stamp a zero version
			}
			if rd, ok := m.(*ClientRedirect); ok && rd.Version == 0 {
				rd.Version = CurrentVersion
			}
			if !reflect.DeepEqual(again, m) {
				t.Fatalf("re-encoded %T decodes differently:\n %+v\nwas\n %+v", m, again, m)
			}
		}
	})
}

// reencode encodes a message DecodeCatchup or DecodeClient returned.
func reencode(m any) []byte {
	switch v := m.(type) {
	case *CatchupReq:
		return EncodeCatchupReq(v)
	case *CatchupResp:
		return EncodeCatchupResp(v)
	case *ClientHello:
		return EncodeClientHello(v)
	case *ClientPublish:
		return EncodeClientPublish(v)
	case *ClientPubAck:
		return EncodeClientPubAck(v)
	case *ClientSubscribe:
		return EncodeClientSubscribe(v)
	case *ClientEvent:
		return EncodeClientEvent(v)
	case *ClientRedirect:
		return EncodeClientRedirect(v)
	}
	panic(fmt.Sprintf("reencode: %T", m))
}
