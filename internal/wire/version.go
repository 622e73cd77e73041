// Wire protocol versioning.
//
// Every ring frame (KindFSR) carries a one-byte protocol version right
// after the channel kind, and the client HELLO/REDIRECT handshake carries
// the speaker's version, so a mixed-version membership (a rolling upgrade)
// is expressible and testable.
//
// Compat policy, stated once and enforced everywhere:
//
//   - Same-major versions interoperate on the layouts both speak. No
//     decoder tolerates trailing bytes: DecodeFrameInto, DecodeClient,
//     DecodeCatchup and DecodeAdmin all refuse a message longer than its
//     layout, and a refused ring frame, or a malformed view-change control
//     or catch-up message of a known type, fail-stops the receiver. So a
//     minor bump cannot append a field to an existing message. Adding one
//     takes a new channel kind (skipped, below), a new message type, or a
//     major bump. A member skips and counts a view-change control or
//     catch-up message whose type it does not know (ErrUnknownType), and
//     drops a refused client or admin message. The only appended field
//     same-major decoders read is the HELLO/REDIRECT version byte, last
//     below.
//   - A new message type costs what older builds skip. A relayed
//     suspicion travels as vsc's EpochSuspicion, stamped with the
//     reporter's epoch, instead of Suspicion: during a mixed-build upgrade
//     an older coordinator drops the relays of upgraded members and acts
//     only on its own detector and on older members' relays, so an
//     asymmetric fault that only an upgraded member sees waits until the
//     coordinator is upgraded too.
//   - A different major is rejected with ErrVersion. Receivers SKIP such
//     frames (count them, drop them) rather than failing the process: a
//     too-new peer must not crash an old member, it must merely not be
//     understood.
//   - Unknown channel kinds are skipped, not fatal, for the same reason —
//     a future minor may introduce new kinds.
//   - HELLOs and REDIRECTs without a trailing version byte are legacy 1.0
//     speakers; decoders treat absence as Version(1, 0).

package wire

import "errors"

// Protocol version of this build. The minor is bumped for changes
// same-major peers still understand (1.1 added the version byte itself and
// the HELLO negotiation); the major is bumped only for incompatible ones.
const (
	ProtoMajor = 1
	ProtoMinor = 1
)

// MakeVersion packs a (major, minor) pair into the wire's version byte:
// high nibble major, low nibble minor.
func MakeVersion(major, minor int) byte {
	return byte(major&0xf)<<4 | byte(minor&0xf)
}

// CurrentVersion is the version this build stamps on outbound frames by
// default; PrevVersion is the previous release's version, kept addressable
// so upgrade tests (and the harness's rolling-upgrade profile) can simulate
// an old member.
var (
	CurrentVersion = MakeVersion(ProtoMajor, ProtoMinor)
	PrevVersion    = MakeVersion(ProtoMajor, ProtoMinor-1)
)

// VersionMajor and VersionMinor unpack a wire version byte.
func VersionMajor(v byte) int { return int(v >> 4) }
func VersionMinor(v byte) int { return int(v & 0xf) }

// CompatibleVersion reports whether a peer speaking v can interoperate
// with this build: same major. (v == 0 — "unspecified" — is compatible;
// encoders never emit 0.)
func CompatibleVersion(v byte) bool {
	return v == 0 || VersionMajor(v) == ProtoMajor
}

// ErrVersion reports a frame from an incompatible (different-major) peer.
// Receivers must treat it as "skip this frame", never as a process fault.
var ErrVersion = errors.New("wire: incompatible protocol version")
