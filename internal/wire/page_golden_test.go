package wire

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"
)

// TestPageBytesGolden pins the bytes of the two pages that share the page
// body: a catch-up response and a tail EVENT. KindCatchup carries no
// version byte and its decoder refuses trailing bytes, so a layout change
// would fail-stop an older member in the middle of a rolling upgrade. The
// hex was recorded before the two messages shared one codec.
func TestPageBytesGolden(t *testing.T) {
	cases := []struct {
		name   string
		msg    any
		decode func([]byte) (any, error)
		golden string
	}{
		{
			name: "catch-up page",
			msg: &CatchupResp{
				HasSnapshot: true, SnapSeq: 40, Snapshot: []byte("index|state@40"),
				UpTo: 60, More: true, Ceiling: 55,
				Entries: []ClientEventEntry{
					{Seq: 41, Origin: 3, Logical: 7, Payload: []byte("a")},
					{Seq: 43, Origin: 1 << 31, Logical: 9, Payload: []byte("bc")},
				},
			},
			decode: DecodeCatchup,
			golden: "0402063c00000000000000370000000000000028000000000000000e000000696e6465787c737461746540343002000000290000000000000003000000070000000000000001000000612b00000000000000000000800900000000000000020000006263",
		},
		{
			name:   "catch-up unavailable",
			msg:    &CatchupResp{Unavailable: true},
			decode: DecodeCatchup,
			golden: "0402010000000000000000000000000000000000000000",
		},
		{
			name: "tail event",
			msg: &ClientEvent{
				Sub: 5, Tail: true, HasSnapshot: true, SnapSeq: 20, Snapshot: []byte("state@20"),
				Entries: []ClientEventEntry{
					{Seq: 21, Origin: 2, Logical: 11, Payload: []byte("xyz")},
					{Seq: 24, Origin: 1<<31 + 1, Logical: 1, Payload: []byte{}},
				},
			},
			decode: DecodeClient,
			golden: "05050500000000000000031400000000000000080000007374617465403230020000001500000000000000020000000b000000000000000300000078797a180000000000000001000080010000000000000000000000",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := hex.DecodeString(c.golden)
			if err != nil {
				t.Fatal(err)
			}
			var got []byte
			switch m := c.msg.(type) {
			case *CatchupResp:
				got = EncodeCatchupResp(m)
			case *ClientEvent:
				got = AppendClientEvent(nil, m)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("encoded\n %x\nwant\n %x", got, want)
			}
			back, err := c.decode(want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, c.msg) {
				t.Fatalf("decoded %+v, want %+v", back, c.msg)
			}
		})
	}
}
