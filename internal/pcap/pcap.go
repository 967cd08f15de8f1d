// Package pcap reads and writes the classic libpcap capture file format
// (the format tcpdump -w produces), which the Marauder's map capture
// pipeline uses to persist sniffed 802.11 traffic. Only the features the
// pipeline needs are implemented: microsecond timestamps, configurable link
// type, and native little-endian byte order with big-endian read support.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// LinkType identifies the capture's layer-2 protocol.
type LinkType uint32

// Link types relevant to 802.11 capture.
const (
	// LinkTypeEthernet is DLT_EN10MB.
	LinkTypeEthernet LinkType = 1
	// LinkTypeIEEE80211 is DLT_IEEE802_11: raw 802.11 headers, the format
	// this pipeline writes.
	LinkTypeIEEE80211 LinkType = 105
)

const (
	magicLE       = 0xa1b2c3d4
	magicBE       = 0xd4c3b2a1
	versionMajor  = 2
	versionMinor  = 4
	globalHdrLen  = 24
	packetHdrLen  = 16
	defaultSnapLn = 65535
	// maxCapLen bounds a packet's capture length whatever snap length the
	// file's header claims (libpcap's own maximum): the header is input,
	// and the reader allocates the capture length before reading.
	maxCapLen = 262144
)

// Format errors.
var (
	ErrBadMagic    = errors.New("pcap: bad magic number")
	ErrTruncated   = errors.New("pcap: truncated file")
	ErrSnapExceeds = errors.New("pcap: packet exceeds snap length")
)

// Packet is one captured frame.
type Packet struct {
	// Time is the capture timestamp.
	Time time.Time
	// Data is the captured bytes (up to the snap length).
	Data []byte
	// OrigLen is the original frame length on the air.
	OrigLen int
}

// Writer writes a pcap stream.
type Writer struct {
	w       io.Writer
	snapLen uint32
	started bool
	link    LinkType
}

// NewWriter creates a Writer that emits a pcap stream with the given link
// type. The global header is written lazily on the first packet (or by
// Flush-like explicit WriteHeader).
func NewWriter(w io.Writer, link LinkType) *Writer {
	return &Writer{w: w, snapLen: defaultSnapLn, link: link}
}

// WriteHeader writes the global header immediately. It is idempotent.
func (w *Writer) WriteHeader() error {
	if w.started {
		return nil
	}
	var hdr [globalHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicLE)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMajor)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMinor)
	// thiszone = 0, sigfigs = 0
	binary.LittleEndian.PutUint32(hdr[16:20], w.snapLen)
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(w.link))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: write global header: %w", err)
	}
	w.started = true
	return nil
}

// WritePacket appends one packet record.
func (w *Writer) WritePacket(p Packet) error {
	if len(p.Data) > int(w.snapLen) {
		return ErrSnapExceeds
	}
	if err := w.WriteHeader(); err != nil {
		return err
	}
	orig := p.OrigLen
	if orig < len(p.Data) {
		orig = len(p.Data)
	}
	var hdr [packetHdrLen]byte
	ts := p.Time
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(p.Data)))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(orig))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: write packet header: %w", err)
	}
	if _, err := w.w.Write(p.Data); err != nil {
		return fmt.Errorf("pcap: write packet data: %w", err)
	}
	return nil
}

// Reader reads a pcap stream.
type Reader struct {
	r       io.Reader
	order   binary.ByteOrder
	link    LinkType
	snapLen uint32
}

// NewReader parses the global header and returns a Reader positioned at the
// first packet.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [globalHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: read global header: %w", err)
	}
	var order binary.ByteOrder
	switch binary.LittleEndian.Uint32(hdr[0:4]) {
	case magicLE:
		order = binary.LittleEndian
	case magicBE:
		order = binary.BigEndian
	default:
		return nil, ErrBadMagic
	}
	return &Reader{
		r:       r,
		order:   order,
		snapLen: order.Uint32(hdr[16:20]),
		link:    LinkType(order.Uint32(hdr[20:24])),
	}, nil
}

// LinkType returns the capture's link type.
func (r *Reader) LinkType() LinkType { return r.link }

// SnapLen returns the capture's snapshot length.
func (r *Reader) SnapLen() uint32 { return r.snapLen }

// Next returns the next packet, or io.EOF at end of stream.
func (r *Reader) Next() (Packet, error) {
	var hdr [packetHdrLen]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Packet{}, io.EOF
		}
		return Packet{}, ErrTruncated
	}
	sec := r.order.Uint32(hdr[0:4])
	usec := r.order.Uint32(hdr[4:8])
	capLen := r.order.Uint32(hdr[8:12])
	origLen := r.order.Uint32(hdr[12:16])
	if capLen > r.snapLen {
		return Packet{}, fmt.Errorf("pcap: capture length %d exceeds snap length %d",
			capLen, r.snapLen)
	}
	if capLen > maxCapLen {
		return Packet{}, fmt.Errorf("pcap: capture length %d exceeds the %d-byte maximum",
			capLen, maxCapLen)
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Packet{}, ErrTruncated
	}
	return Packet{
		Time:    time.Unix(int64(sec), int64(usec)*1000).UTC(),
		Data:    data,
		OrigLen: int(origLen),
	}, nil
}

// ReadAll drains the stream into a slice.
func (r *Reader) ReadAll() ([]Packet, error) {
	var out []Packet
	for {
		p, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}
