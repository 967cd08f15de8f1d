// Package capwire is the distributed capture plane's wire protocol and
// runtime: a stdlib-only, length-prefixed, CRC-32-checksummed message
// stream that moves sniffer capture batches from remote agents
// (cmd/capagent) into the central engine (cmd/marauder).
//
// The protocol is built for flaky capture infrastructure. Delivery is
// at-least-once with exactly-once ingest accounting: every batch carries
// a per-agent monotonic sequence number, the server acks a cumulative
// cursor, an agent replays its unacked tail after a reconnect, and the
// server dedups anything at or below its cursor. The cursors ride inside
// the observation checkpoint, so resume survives an engine restart too.
//
// Wire format (all integers big-endian):
//
//	message  = magic "MRCW" | version u8 | type u8 | payloadLen u32
//	           | payload | crc32 u32
//
// The CRC-32 (IEEE) covers version, type, payloadLen and payload — a
// bit-flipped message fails the checksum and is rejected at the framing
// layer, turning transport corruption into a clean reconnect + replay
// instead of poisoned ingest. One Write call carries exactly one message
// (the contract the faults.WirePlan conn wrapper relies on).
package capwire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/dot11"
	"repro/internal/sniffer"
)

// Protocol constants.
const (
	// Version is the protocol version carried in every message.
	Version = 1

	headerLen  = 10 // magic(4) + version(1) + type(1) + payloadLen(4)
	trailerLen = 4  // crc32

	// MaxPayload bounds a single message's payload; a decoder rejects
	// larger claims before allocating.
	MaxPayload = 8 << 20

	// MaxBatchItems bounds the captures in one batch.
	MaxBatchItems = 1 << 16

	// MaxAgentID bounds the agent identifier length.
	MaxAgentID = 128

	// maxItemData bounds one capture's encoded frame bytes; generous next
	// to dot11's ~2400-byte MTU but tight enough to starve hostile length
	// claims.
	maxItemData = 1 << 16

	// keepBytes bounds the memory a session, at either end, keeps for
	// reuse between messages. Anything larger is dropped once its message
	// is done, so one large batch cannot pin memory for the session's
	// life.
	keepBytes = 128 << 10
)

var magic = [4]byte{'M', 'R', 'C', 'W'}

// Message types.
const (
	// TypeHello opens a session: agent -> server, carries the agent ID.
	TypeHello = 1
	// TypeHelloAck answers a Hello: server -> agent, carries the agent's
	// resume cursor (highest contiguous batch seq the server has ingested).
	TypeHelloAck = 2
	// TypeBatch carries one capture batch: agent -> server.
	TypeBatch = 3
	// TypeAck acknowledges batches: server -> agent, cumulative cursor.
	TypeAck = 4
	// TypeHeartbeat keeps an idle session alive: agent -> server; the
	// server answers with an Ack so both directions see traffic.
	TypeHeartbeat = 5
)

// Hello opens an agent session.
type Hello struct {
	// AgentID names the agent; the server keys cursors and accounting
	// by it. 1..MaxAgentID bytes.
	AgentID string
}

// HelloAck completes the handshake with the agent's resume cursor.
type HelloAck struct {
	// Cursor is the highest contiguous batch seq the server has ingested
	// for this agent; the agent resumes from Cursor+1.
	Cursor uint64
}

// Ack acknowledges every batch up to and including Cursor.
type Ack struct {
	Cursor uint64
}

// Heartbeat is the agent's keepalive; QueuedBatches reports its send
// backlog so the server can expose per-agent lag.
type Heartbeat struct {
	QueuedBatches uint32
}

// Item is one capture on the wire. Data holds the encoded 802.11 frame
// when HasFrame is set, or the raw (possibly corrupt) capture bytes when
// not; either way the server hands the result to the engine, whose
// quarantine path owns undecodable frames.
type Item struct {
	TimeSec     float64
	SNRDB       float64
	Channel     uint16
	CardChannel uint16
	LiveMask    uint16
	FromAP      bool
	HasFrame    bool
	Data        []byte
}

// Batch is one sequenced capture batch.
type Batch struct {
	// Seq is the agent-assigned monotonic batch sequence number,
	// starting at 1.
	Seq   uint64
	Items []Item
}

// itemFlags bits.
const (
	flagFromAP   = 1 << 0
	flagHasFrame = 1 << 1
)

// itemHeader is an item's fixed part: time, SNR, channel, card channel,
// live mask, flags and data length.
const itemHeader = 8 + 8 + 2 + 2 + 2 + 1 + 4

// AppendMessage appends msg's wire encoding to dst and returns the
// extended slice. msg must be one of *Hello, *HelloAck, *Batch, *Ack,
// *Heartbeat. A batch is sized first, so dst grows at most once and the
// payload is written in place.
func AppendMessage(dst []byte, msg any) ([]byte, error) {
	start := len(dst)
	// The type and length bytes are filled in once the payload is written.
	dst = append(dst, magic[0], magic[1], magic[2], magic[3], Version, 0, 0, 0, 0, 0)
	var typ byte
	switch m := msg.(type) {
	case *Hello:
		if len(m.AgentID) == 0 || len(m.AgentID) > MaxAgentID {
			return nil, fmt.Errorf("capwire: agent ID length %d, want 1..%d", len(m.AgentID), MaxAgentID)
		}
		typ = TypeHello
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.AgentID)))
		dst = append(dst, m.AgentID...)
	case *HelloAck:
		typ = TypeHelloAck
		dst = binary.BigEndian.AppendUint64(dst, m.Cursor)
	case *Ack:
		typ = TypeAck
		dst = binary.BigEndian.AppendUint64(dst, m.Cursor)
	case *Heartbeat:
		typ = TypeHeartbeat
		dst = binary.BigEndian.AppendUint32(dst, m.QueuedBatches)
	case *Batch:
		if len(m.Items) > MaxBatchItems {
			return nil, fmt.Errorf("capwire: batch has %d items, max %d", len(m.Items), MaxBatchItems)
		}
		size := 12
		for i := range m.Items {
			n := len(m.Items[i].Data)
			if n > maxItemData {
				return nil, fmt.Errorf("capwire: item %d data %d bytes, max %d", i, n, maxItemData)
			}
			size += itemHeader + n
		}
		if size > MaxPayload {
			return nil, fmt.Errorf("capwire: payload %d bytes, max %d", size, MaxPayload)
		}
		typ = TypeBatch
		dst = slices.Grow(dst, size+trailerLen)
		dst = binary.BigEndian.AppendUint64(dst, m.Seq)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(m.Items)))
		for i := range m.Items {
			it := &m.Items[i]
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(it.TimeSec))
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(it.SNRDB))
			dst = binary.BigEndian.AppendUint16(dst, it.Channel)
			dst = binary.BigEndian.AppendUint16(dst, it.CardChannel)
			dst = binary.BigEndian.AppendUint16(dst, it.LiveMask)
			var flags byte
			if it.FromAP {
				flags |= flagFromAP
			}
			if it.HasFrame {
				flags |= flagHasFrame
			}
			dst = append(dst, flags)
			dst = binary.BigEndian.AppendUint32(dst, uint32(len(it.Data)))
			dst = append(dst, it.Data...)
		}
	default:
		return nil, fmt.Errorf("capwire: cannot encode %T", msg)
	}
	dst[start+5] = typ
	binary.BigEndian.PutUint32(dst[start+6:start+headerLen], uint32(len(dst)-start-headerLen))
	sum := crc32.ChecksumIEEE(dst[start+4:]) // version..payload
	return binary.BigEndian.AppendUint32(dst, sum), nil
}

// EncodeMessage returns msg's wire encoding.
func EncodeMessage(msg any) ([]byte, error) {
	return AppendMessage(nil, msg)
}

// DecodeMessage decodes one message from the front of b, returning the
// message and the number of bytes consumed. Any framing, checksum or
// payload violation is an error; decoding never panics on arbitrary
// input, and an accepted message re-encodes to exactly the consumed
// bytes. A batch's item data alias b.
func DecodeMessage(b []byte) (any, int, error) {
	return decodeMessage(b, nil)
}

// decodeMessage is DecodeMessage decoding a batch into dst (a fresh
// batch when dst is nil), reusing the storage of dst.Items.
func decodeMessage(b []byte, dst *Batch) (any, int, error) {
	if len(b) < headerLen+trailerLen {
		return nil, 0, fmt.Errorf("capwire: short message: %d bytes", len(b))
	}
	if err := checkHeader(b); err != nil {
		return nil, 0, err
	}
	typ := b[5]
	plen := binary.BigEndian.Uint32(b[6:10])
	total := headerLen + int(plen) + trailerLen
	if len(b) < total {
		return nil, 0, fmt.Errorf("capwire: message claims %d bytes, have %d", total, len(b))
	}
	payload := b[headerLen : headerLen+int(plen)]
	want := binary.BigEndian.Uint32(b[total-trailerLen : total])
	if got := crc32.ChecksumIEEE(b[4 : total-trailerLen]); got != want {
		return nil, 0, fmt.Errorf("capwire: checksum mismatch: %08x != %08x", got, want)
	}
	msg, err := decodePayload(typ, payload, dst)
	if err != nil {
		return nil, 0, err
	}
	return msg, total, nil
}

// checkHeader checks a header's magic, version and payload length claim.
func checkHeader(head []byte) error {
	if [4]byte(head[:4]) != magic {
		return fmt.Errorf("capwire: bad magic %x", head[:4])
	}
	if head[4] != Version {
		return fmt.Errorf("capwire: unsupported version %d", head[4])
	}
	if plen := binary.BigEndian.Uint32(head[6:10]); plen > MaxPayload {
		return fmt.Errorf("capwire: payload claims %d bytes, max %d", plen, MaxPayload)
	}
	return nil
}

// decodePayload parses a checksum-verified payload for one message type,
// rejecting trailing or missing bytes so decode(encode(m)) is exact. A
// batch is decoded into dst (a fresh one when nil), its items' data
// aliasing p.
func decodePayload(typ byte, p []byte, dst *Batch) (any, error) {
	switch typ {
	case TypeHello:
		if len(p) < 2 {
			return nil, fmt.Errorf("capwire: hello payload %d bytes", len(p))
		}
		n := int(binary.BigEndian.Uint16(p[:2]))
		if n == 0 || n > MaxAgentID || len(p) != 2+n {
			return nil, fmt.Errorf("capwire: hello ID length %d, payload %d", n, len(p))
		}
		return &Hello{AgentID: string(p[2 : 2+n])}, nil
	case TypeHelloAck:
		if len(p) != 8 {
			return nil, fmt.Errorf("capwire: helloack payload %d bytes, want 8", len(p))
		}
		return &HelloAck{Cursor: binary.BigEndian.Uint64(p)}, nil
	case TypeAck:
		if len(p) != 8 {
			return nil, fmt.Errorf("capwire: ack payload %d bytes, want 8", len(p))
		}
		return &Ack{Cursor: binary.BigEndian.Uint64(p)}, nil
	case TypeHeartbeat:
		if len(p) != 4 {
			return nil, fmt.Errorf("capwire: heartbeat payload %d bytes, want 4", len(p))
		}
		return &Heartbeat{QueuedBatches: binary.BigEndian.Uint32(p)}, nil
	case TypeBatch:
		if len(p) < 12 {
			return nil, fmt.Errorf("capwire: batch payload %d bytes", len(p))
		}
		count := binary.BigEndian.Uint32(p[8:12])
		if count > MaxBatchItems {
			return nil, fmt.Errorf("capwire: batch claims %d items, max %d", count, MaxBatchItems)
		}
		// Every item takes at least its header, so a larger claim is a
		// lie, refused before it sizes anything.
		if int(count) > (len(p)-12)/itemHeader {
			return nil, fmt.Errorf("capwire: batch claims %d items in %d bytes", count, len(p)-12)
		}
		b := dst
		if b == nil {
			b = new(Batch)
		}
		b.Seq = binary.BigEndian.Uint64(p[:8])
		b.Items = slices.Grow(b.Items[:0], int(count))
		p = p[12:]
		for i := uint32(0); i < count; i++ {
			if len(p) < itemHeader {
				return nil, fmt.Errorf("capwire: batch item %d: %d bytes left", i, len(p))
			}
			it := Item{
				TimeSec:     math.Float64frombits(binary.BigEndian.Uint64(p[0:8])),
				SNRDB:       math.Float64frombits(binary.BigEndian.Uint64(p[8:16])),
				Channel:     binary.BigEndian.Uint16(p[16:18]),
				CardChannel: binary.BigEndian.Uint16(p[18:20]),
				LiveMask:    binary.BigEndian.Uint16(p[20:22]),
			}
			flags := p[22]
			if flags&^(flagFromAP|flagHasFrame) != 0 {
				return nil, fmt.Errorf("capwire: batch item %d: unknown flags %02x", i, flags)
			}
			it.FromAP = flags&flagFromAP != 0
			it.HasFrame = flags&flagHasFrame != 0
			dlen := binary.BigEndian.Uint32(p[23:27])
			if dlen > maxItemData {
				return nil, fmt.Errorf("capwire: batch item %d: data claims %d bytes", i, dlen)
			}
			p = p[itemHeader:]
			if len(p) < int(dlen) {
				return nil, fmt.Errorf("capwire: batch item %d: data %d bytes, %d left", i, dlen, len(p))
			}
			if dlen > 0 {
				it.Data = p[:dlen:dlen]
			}
			p = p[dlen:]
			b.Items = append(b.Items, it)
		}
		if len(p) != 0 {
			return nil, fmt.Errorf("capwire: batch has %d trailing bytes", len(p))
		}
		return b, nil
	}
	return nil, fmt.Errorf("capwire: unknown message type %d", typ)
}

// ReadMessage reads exactly one message from r into memory of its own.
// It allocates at most MaxPayload bytes for the payload and returns any
// framing error as-is; io.EOF before the first header byte means a clean
// close.
func ReadMessage(r io.Reader) (any, error) {
	return new(reader).read(r)
}

// reader reads messages into one reused buffer. The batch it returns is
// its own, and the items' data alias the buffer: both are valid only
// until the next read.
type reader struct {
	buf   []byte
	batch Batch
}

// read reads and decodes exactly one message from r, with ReadMessage's
// errors.
func (rd *reader) read(r io.Reader) (any, error) {
	buf := slices.Grow(rd.buf[:0], headerLen)[:headerLen]
	rd.buf = buf
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	if err := checkHeader(buf); err != nil {
		return nil, err
	}
	total := headerLen + int(binary.BigEndian.Uint32(buf[6:10])) + trailerLen
	buf = slices.Grow(buf, total-headerLen)[:total]
	rd.buf = buf
	if _, err := io.ReadFull(r, buf[headerLen:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	msg, _, err := decodeMessage(buf, &rd.batch)
	return msg, err
}

// BatchFromCaptures builds a sequenced wire batch from captures. Decoded
// frames are re-encoded (bit-exact by dot11's round-trip contract);
// corrupt captures travel as their raw bytes with HasFrame unset. Every
// item's data is a copy in one buffer the batch owns.
func BatchFromCaptures(seq uint64, caps []sniffer.Capture) (*Batch, error) {
	size := 0
	for i := range caps {
		if f := caps[i].Frame; f != nil {
			size += f.EncodedLen()
		} else {
			size += len(caps[i].Raw)
		}
	}
	data := make([]byte, 0, size)
	b := &Batch{Seq: seq, Items: make([]Item, len(caps))}
	for i := range caps {
		c := &caps[i]
		it := &b.Items[i]
		*it = Item{
			TimeSec:     c.TimeSec,
			SNRDB:       c.SNRDB,
			Channel:     clampUint16(c.Channel),
			CardChannel: clampUint16(c.CardChannel),
			LiveMask:    c.LiveMask,
			FromAP:      c.FromAP,
			HasFrame:    c.Frame != nil,
		}
		from := len(data)
		if c.Frame != nil {
			var err error
			if data, err = c.Frame.AppendEncode(data); err != nil {
				return nil, fmt.Errorf("capwire: capture %d: encode frame: %w", i, err)
			}
		} else {
			data = append(data, c.Raw...)
		}
		// data was sized to fit, so it never moves and the items share it.
		if to := len(data); to > from {
			it.Data = data[from:to:to]
		}
	}
	return b, nil
}

// ToCaptures converts the batch's items for engine ingest the way the
// server does, parsing frames into a fresh arena. An item whose frame
// bytes do not decode (agent-side corruption sent deliberately as
// HasFrame; wire corruption the CRC caught cannot reach here) degrades to
// a raw capture for the engine's quarantine path. The frames' information
// elements and the raw captures' bytes alias the items' data, so the
// captures are valid only while those bytes are unchanged.
func (b *Batch) ToCaptures() []sniffer.Capture {
	return new(arena).captures(b.Items)
}

// arena holds one batch's decoded frames and captures, reused batch to
// batch by a server session.
type arena struct {
	// frames always has len == cap; each keeps its IEs storage for reuse.
	frames []dot11.Frame
	caps   []sniffer.Capture
}

// captures parses items into the arena and returns their captures. A
// frame's IEs and a raw capture's bytes alias the items' data. The
// captures are valid until the arena's next use or clear.
func (a *arena) captures(items []Item) []sniffer.Capture {
	if len(a.frames) < len(items) {
		a.frames = slices.Grow(a.frames, len(items)-len(a.frames))
		a.frames = a.frames[:cap(a.frames)]
	}
	a.caps = slices.Grow(a.caps[:0], len(items))
	used := 0
	for i := range items {
		it := &items[i]
		c := sniffer.Capture{
			TimeSec:     it.TimeSec,
			Channel:     int(it.Channel),
			CardChannel: int(it.CardChannel),
			SNRDB:       it.SNRDB,
			FromAP:      it.FromAP,
			LiveMask:    it.LiveMask,
		}
		if f := &a.frames[used]; it.HasFrame && f.Parse(it.Data) == nil {
			c.Frame = f
			used++
		} else {
			c.Raw = it.Data
		}
		a.caps = append(a.caps, c)
	}
	return a.caps
}

// clear drops the captures' and frames' references into item data,
// keeping their storage.
func (a *arena) clear() {
	clear(a.caps)
	for i := range a.frames {
		clear(a.frames[i].IEs)
	}
}

func clampUint16(v int) uint16 {
	if v < 0 {
		return 0
	}
	if v > math.MaxUint16 {
		return math.MaxUint16
	}
	return uint16(v)
}
