package fsr

import (
	"bytes"
	"testing"

	"fsr/internal/core"
	"fsr/internal/wire"
)

func TestAssemblerSinglePart(t *testing.T) {
	a := newAssembler()
	msg, res := a.add(core.Delivery{
		Seq: 7, ID: wire.MsgID{Origin: 2, Local: 5}, Part: 0, Parts: 1, Body: []byte("x"),
	})
	if res != asmComplete || msg.Seq != 7 || msg.Origin != 2 || msg.LogicalID != 5 || string(msg.Payload) != "x" {
		t.Fatalf("got %+v res=%v", msg, res)
	}
	if len(a.partial) != 0 {
		t.Error("partial state leaked")
	}
}

func TestAssemblerMultiPart(t *testing.T) {
	a := newAssembler()
	parts := [][]byte{[]byte("aa"), []byte("bb"), []byte("c")}
	for i, p := range parts[:2] {
		if _, res := a.add(core.Delivery{
			Seq: uint64(10 + i), ID: wire.MsgID{Origin: 1, Local: uint64(20 + i)},
			Part: uint32(i), Parts: 3, Body: p,
		}); res != asmPending {
			t.Fatalf("completed early at part %d", i)
		}
	}
	msg, res := a.add(core.Delivery{
		Seq: 12, ID: wire.MsgID{Origin: 1, Local: 22}, Part: 2, Parts: 3, Body: parts[2],
	})
	if res != asmComplete {
		t.Fatal("not completed on final part")
	}
	if msg.Seq != 12 || msg.Origin != 1 || msg.LogicalID != 20 {
		t.Fatalf("header: %+v", msg)
	}
	if !bytes.Equal(msg.Payload, []byte("aabbc")) {
		t.Fatalf("payload %q", msg.Payload)
	}
	if len(a.partial) != 0 {
		t.Error("partial state leaked")
	}
}

func TestAssemblerInterleavedOrigins(t *testing.T) {
	a := newAssembler()
	// Segments of two origins interleave in the total order; each must
	// reassemble independently.
	seq := uint64(1)
	add := func(origin ProcID, local uint64, part, parts uint32, body string) (Message, asmResult) {
		d := core.Delivery{
			Seq: seq, ID: wire.MsgID{Origin: origin, Local: local},
			Part: part, Parts: parts, Body: []byte(body),
		}
		seq++
		return a.add(d)
	}
	if _, res := add(1, 0, 0, 2, "1a"); res != asmPending {
		t.Fatal("early")
	}
	if _, res := add(2, 0, 0, 2, "2a"); res != asmPending {
		t.Fatal("early")
	}
	m1, res := add(1, 1, 1, 2, "1b")
	if res != asmComplete || string(m1.Payload) != "1a1b" || m1.Origin != 1 {
		t.Fatalf("m1: %+v", m1)
	}
	m2, res := add(2, 1, 1, 2, "2b")
	if res != asmComplete || string(m2.Payload) != "2a2b" || m2.Origin != 2 {
		t.Fatalf("m2: %+v", m2)
	}
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	if _, err := (Config{Self: 1}).withDefaults(); err == nil {
		t.Error("empty members accepted")
	}
	if _, err := (Config{Self: 1, Members: []ProcID{1, 2}, T: -1}).withDefaults(); err == nil {
		t.Error("negative T accepted")
	}
	c, err := (Config{Self: 1, Members: []ProcID{1, 2, 3}}).withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if c.T != 1 || c.SnapshotEvery != 4096 {
		t.Errorf("defaults: %+v", c)
	}
	if _, err := (Config{Self: 1, Members: []ProcID{1}, HeartbeatInterval: 50, FailureTimeout: 10}).withDefaults(); err == nil {
		t.Error("timeout below heartbeat accepted")
	}
	v, err := (Config{Self: 9, Joiner: true}).initialView()
	if err != nil {
		t.Fatal(err)
	}
	if v.Ring.N() != 1 || v.ID != 0 {
		t.Errorf("joiner view: %+v", v)
	}
}

func TestAssemblerDropsHeadlessMessage(t *testing.T) {
	// A process that joins mid-message sees only the tail parts of a
	// straddling broadcast; the assembler must drop it cleanly (reporting
	// the final segment's seq so a durable node can fetch the message via
	// catch-up) instead of emitting a corrupt payload.
	a := newAssembler()
	if _, res := a.add(core.Delivery{
		Seq: 50, ID: wire.MsgID{Origin: 3, Local: 11}, Part: 1, Parts: 3, Body: []byte("mid"),
	}); res != asmPending {
		t.Fatalf("tail part res = %v", res)
	}
	msg, res := a.add(core.Delivery{
		Seq: 51, ID: wire.MsgID{Origin: 3, Local: 12}, Part: 2, Parts: 3, Body: []byte("end"),
	})
	if res != asmDropped || msg.Seq != 51 {
		t.Fatalf("final part of headless message: res=%v msg=%+v", res, msg)
	}
	if len(a.partial) != 0 || len(a.poisoned) != 0 {
		t.Error("poison state leaked")
	}
	// A final-only sighting is dropped immediately.
	if msg, res := a.add(core.Delivery{
		Seq: 60, ID: wire.MsgID{Origin: 4, Local: 9}, Part: 1, Parts: 2, Body: []byte("z"),
	}); res != asmDropped || msg.Seq != 60 {
		t.Fatalf("final-only sighting: res=%v", res)
	}
	// Later messages from the same origin reassemble normally.
	if _, res := a.add(core.Delivery{
		Seq: 70, ID: wire.MsgID{Origin: 3, Local: 13}, Part: 0, Parts: 2, Body: []byte("a"),
	}); res != asmPending {
		t.Fatal("fresh head not pending")
	}
	if m, res := a.add(core.Delivery{
		Seq: 71, ID: wire.MsgID{Origin: 3, Local: 14}, Part: 1, Parts: 2, Body: []byte("b"),
	}); res != asmComplete || string(m.Payload) != "ab" {
		t.Fatalf("fresh message after drop: res=%v payload=%q", res, m.Payload)
	}
}
