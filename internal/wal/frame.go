// Exported record framing.  The replicated-log layer in
// internal/cluster reuses the journal's record framing for its log
// entries, so a follower verifies exactly the checksum the journal
// would have verified on replay — one framing, one failure mode.
package wal

import (
	"encoding/binary"
	"fmt"
)

// EncodeRecord frames one record exactly as a journal segment stores
// it: u32 payload length, u32 CRC32C over type‖payload, the type byte,
// then the payload.
func EncodeRecord(typ byte, data []byte) []byte {
	return appendFrame(make([]byte, 0, recHeaderLen+len(data)), typ, data)
}

// DecodeRecord parses one EncodeRecord frame, verifying the declared
// length and the checksum.  Any mismatch is ErrCorrupt: a frame that
// fails its CRC must never be applied, whether it came off a disk
// segment or a replication stream.  The returned Data aliases b: the
// replication path decodes every frame twice per replica (verify on
// offer, apply on commit), and neither use outlives the frame.
func DecodeRecord(b []byte) (Record, error) {
	if len(b) < recHeaderLen {
		return Record{}, fmt.Errorf("%w: frame header short (%d bytes)", ErrCorrupt, len(b))
	}
	n := int64(binary.LittleEndian.Uint32(b[:4]))
	crc := binary.LittleEndian.Uint32(b[4:8])
	typ := b[8]
	if n != int64(len(b))-recHeaderLen {
		return Record{}, fmt.Errorf("%w: frame declares %d payload bytes, carries %d", ErrCorrupt, n, int64(len(b))-recHeaderLen)
	}
	payload := b[recHeaderLen:]
	if frameCRC(typ, payload) != crc {
		return Record{}, fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)
	}
	return Record{Type: typ, Data: payload}, nil
}
