package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire protocol: every message is one length-framed, CRC-checked frame.
//
//	offset size
//	0      4   magic "HYCL"
//	4      1   protocol version (ProtoVersion)
//	5      1   frame type
//	6      2   flags (big endian; must be zero in version 1)
//	8      4   payload length (big endian; ≤ MaxPayload)
//	12     4   CRC-32C over bytes [4, 12) plus the payload
//	16     …   payload
//
// Decoding is strict in the same spirit as the graph v2 container
// validator (graph.ReadV2's header and section-table checks): a wrong
// magic, unknown version or type, nonzero flags, oversized length, or
// CRC mismatch is an error, never a guess — the coordinator drops the
// connection (reclaiming its leases) rather than acting on a frame it
// cannot vouch for, and allocation is bounded by MaxPayload so a forged
// length cannot balloon memory.
//
// Control payloads are canonical JSON decoded with unknown fields
// disallowed; the result frame is binary (three big-endian uint64
// headers, then the raw point payload) because its body is already a
// canonical document that must survive byte-exactly.
const (
	protoMagic = 0x4859434C // "HYCL"

	// ProtoVersion is the wire protocol version; bump on any breaking
	// frame or message change.
	ProtoVersion = 1

	// MaxPayload bounds a frame's payload; a header announcing more is
	// rejected before any allocation.
	MaxPayload = 16 << 20

	headerSize = 16
)

// Frame types.
const (
	fHello     = 1  // worker → coordinator: helloMsg
	fJob       = 2  // coordinator → worker: jobMsg
	fLeaseReq  = 3  // worker → coordinator: empty
	fLease     = 4  // coordinator → worker: leaseMsg
	fNoWork    = 5  // coordinator → worker: noWorkMsg
	fHeartbeat = 6  // worker → coordinator: hbMsg
	fAck       = 7  // coordinator → worker: ackMsg (heartbeat/result/done)
	fResult    = 8  // worker → coordinator: binary result
	fPointErr  = 9  // worker → coordinator: pointErrMsg
	fShardDone = 10 // worker → coordinator: hbMsg
	fBye       = 11 // worker → coordinator: empty
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

type helloMsg struct {
	Name string `json:"name"`
	Pid  int    `json:"pid"`
}

type jobMsg struct {
	Spec        json.RawMessage `json:"spec"`
	Points      int             `json:"points"`
	HeartbeatMS int64           `json:"heartbeat_ms"`
	LeaseTTLMS  int64           `json:"lease_ttl_ms"`
}

type leaseMsg struct {
	Shard int    `json:"shard"`
	Gen   uint64 `json:"gen"`
	Start int    `json:"start"`
	End   int    `json:"end"` // exclusive
	TTLMS int64  `json:"ttl_ms"`
}

type noWorkMsg struct {
	Done    bool  `json:"done"`
	RetryMS int64 `json:"retry_ms"`
}

type hbMsg struct {
	Shard     int    `json:"shard"`
	Gen       uint64 `json:"gen"`
	Completed int    `json:"completed"`
}

type ackMsg struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

type pointErrMsg struct {
	Shard int    `json:"shard"`
	Gen   uint64 `json:"gen"`
	Index int    `json:"index"`
	Err   string `json:"err"`
}

// writeFrame writes one frame.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("cluster: frame payload %d bytes exceeds limit %d", len(payload), MaxPayload)
	}
	var h [headerSize]byte
	binary.BigEndian.PutUint32(h[0:4], protoMagic)
	h[4] = ProtoVersion
	h[5] = typ
	binary.BigEndian.PutUint16(h[6:8], 0)
	binary.BigEndian.PutUint32(h[8:12], uint32(len(payload)))
	crc := crc32.Update(crc32.Checksum(h[4:12], crcTable), crcTable, payload)
	binary.BigEndian.PutUint32(h[12:16], crc)
	if _, err := w.Write(h[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		// Never issue a zero-byte write: on synchronous transports
		// (net.Pipe) it blocks for a reader rendezvous that a zero-byte
		// ReadFull on the far side never performs.
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads and verifies one frame, returning its type and
// payload.
func readFrame(r io.Reader) (byte, []byte, error) {
	var h [headerSize]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return 0, nil, err
	}
	if binary.BigEndian.Uint32(h[0:4]) != protoMagic {
		return 0, nil, fmt.Errorf("cluster: bad frame magic %#x", binary.BigEndian.Uint32(h[0:4]))
	}
	if h[4] != ProtoVersion {
		return 0, nil, fmt.Errorf("cluster: protocol version %d, want %d", h[4], ProtoVersion)
	}
	typ := h[5]
	if typ < fHello || typ > fBye {
		return 0, nil, fmt.Errorf("cluster: unknown frame type %d", typ)
	}
	if flags := binary.BigEndian.Uint16(h[6:8]); flags != 0 {
		return 0, nil, fmt.Errorf("cluster: unknown frame flags %#x", flags)
	}
	n := binary.BigEndian.Uint32(h[8:12])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("cluster: frame payload %d bytes exceeds limit %d", n, MaxPayload)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("cluster: truncated frame payload: %w", err)
	}
	want := binary.BigEndian.Uint32(h[12:16])
	if got := crc32.Update(crc32.Checksum(h[4:12], crcTable), crcTable, payload); got != want {
		return 0, nil, fmt.Errorf("cluster: frame CRC mismatch (got %#x, want %#x)", got, want)
	}
	return typ, payload, nil
}

// encodeMsg renders a control message as canonical JSON.
func encodeMsg(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding message: %w", err)
	}
	return b, nil
}

// decodeMsg parses a control payload strictly: unknown fields — a
// message from an incompatible build — are an error.
func decodeMsg(payload []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("cluster: decoding message: %w", err)
	}
	return nil
}

// resultHeaderSize prefixes a result frame: shard, gen, index.
const resultHeaderSize = 24

// encodeResultFrame builds the binary result payload.
func encodeResultFrame(shard int, gen uint64, index int, payload []byte) []byte {
	buf := make([]byte, resultHeaderSize+len(payload))
	binary.BigEndian.PutUint64(buf[0:8], uint64(shard))
	binary.BigEndian.PutUint64(buf[8:16], gen)
	binary.BigEndian.PutUint64(buf[16:24], uint64(index))
	copy(buf[resultHeaderSize:], payload)
	return buf
}

// decodeResultFrame splits a binary result payload.
func decodeResultFrame(b []byte) (shard int, gen uint64, index int, payload []byte, err error) {
	if len(b) < resultHeaderSize {
		return 0, 0, 0, nil, fmt.Errorf("cluster: result frame %d bytes, want ≥ %d", len(b), resultHeaderSize)
	}
	s := binary.BigEndian.Uint64(b[0:8])
	i := binary.BigEndian.Uint64(b[16:24])
	const maxIndex = 1 << 40 // far beyond any real sweep; rejects forged headers
	if s > maxIndex || i > maxIndex {
		return 0, 0, 0, nil, fmt.Errorf("cluster: result frame shard/index out of range")
	}
	return int(s), binary.BigEndian.Uint64(b[8:16]), int(i), b[resultHeaderSize:], nil
}
