// Package dot11 implements the subset of IEEE 802.11 needed by the digital
// Marauder's map capture pipeline: MAC addressing, management frame
// encoding/decoding (beacon, probe request, probe response), information
// elements, the CRC-32 frame check sequence, and the 2.4 GHz channel plan
// with its spectral-overlap structure.
//
// Frames produced by Encode round-trip through Decode bit-exactly, and the
// wire format follows the standard closely enough that the frames are
// recognizable to standard tooling when written to pcap files
// (LinkType IEEE802_11).
package dot11

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// MAC is a 48-bit IEEE 802 MAC address.
type MAC [6]byte

// String renders the address in the canonical colon-separated form,
// lower-case hex ("00:1b:2c:3d:4e:5f"). The map publishes one per device
// per frame, so it formats from a digit table rather than through fmt.
func (m MAC) String() string {
	const hexDigits = "0123456789abcdef"
	var b [17]byte
	for i, v := range m {
		if i > 0 {
			b[3*i-1] = ':'
		}
		b[3*i] = hexDigits[v>>4]
		b[3*i+1] = hexDigits[v&0x0f]
	}
	return string(b[:])
}

// Key is the address as a big-endian 48-bit integer. Key order is the
// canonical MAC order: byte order, and so also the order of the
// fixed-width String forms.
func (m MAC) Key() uint64 {
	return uint64(m[0])<<40 | uint64(m[1])<<32 | uint64(m[2])<<24 |
		uint64(m[3])<<16 | uint64(m[4])<<8 | uint64(m[5])
}

// MACFromKey inverts Key. Bits above the low 48 are ignored.
func MACFromKey(k uint64) MAC {
	return MAC{byte(k >> 40), byte(k >> 32), byte(k >> 24), byte(k >> 16), byte(k >> 8), byte(k)}
}

// AppendFromKeys appends the MACs of packed keys to dst, each as
// MACFromKey builds it.
func AppendFromKeys(dst []MAC, keys []uint64) []MAC {
	for _, k := range keys {
		dst = append(dst, MACFromKey(k))
	}
	return dst
}

// ParseMAC parses a colon-separated MAC address.
func ParseMAC(s string) (MAC, error) {
	var m MAC
	n, err := fmt.Sscanf(s, "%02x:%02x:%02x:%02x:%02x:%02x",
		&m[0], &m[1], &m[2], &m[3], &m[4], &m[5])
	if err != nil || n != 6 {
		return MAC{}, fmt.Errorf("dot11: invalid MAC %q", s)
	}
	return m, nil
}

// Broadcast is the all-ones broadcast address used as the destination of
// probe requests.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// FrameType is the 802.11 type field (2 bits).
type FrameType uint8

// Frame types.
const (
	TypeManagement FrameType = 0
	TypeControl    FrameType = 1
	TypeData       FrameType = 2
)

// Subtype is the 802.11 subtype field (4 bits); values are for management
// frames.
type Subtype uint8

// Management frame subtypes used by the capture pipeline.
const (
	SubtypeAssocReq     Subtype = 0
	SubtypeAssocResp    Subtype = 1
	SubtypeProbeRequest Subtype = 4
	SubtypeProbeResp    Subtype = 5
	SubtypeBeacon       Subtype = 8
	SubtypeDeauth       Subtype = 12
)

// String implements fmt.Stringer.
func (s Subtype) String() string {
	switch s {
	case SubtypeAssocReq:
		return "AssocReq"
	case SubtypeAssocResp:
		return "AssocResp"
	case SubtypeProbeRequest:
		return "ProbeReq"
	case SubtypeProbeResp:
		return "ProbeResp"
	case SubtypeBeacon:
		return "Beacon"
	case SubtypeDeauth:
		return "Deauth"
	default:
		return fmt.Sprintf("Subtype(%d)", uint8(s))
	}
}

// Element IDs of the information elements the pipeline understands.
const (
	EIDSSID           = 0
	EIDSupportedRates = 1
	EIDDSParameterSet = 3 // current channel
)

// IE is a type-length-value information element.
type IE struct {
	ID   uint8
	Data []byte
}

// Frame is a decoded 802.11 management frame. Addr1 is the destination,
// Addr2 the source (transmitter), Addr3 the BSSID.
type Frame struct {
	Type     FrameType
	Subtype  Subtype
	Duration uint16
	Addr1    MAC
	Addr2    MAC
	Addr3    MAC
	Seq      uint16 // sequence number (12 bits)
	Frag     uint8  // fragment number (4 bits)

	// Management-frame fixed fields (beacon / probe response only).
	Timestamp      uint64
	BeaconInterval uint16
	Capability     uint16

	// IEs are the information elements in wire order.
	IEs []IE
}

// Decoding errors.
var (
	ErrShortFrame = errors.New("dot11: frame too short")
	ErrBadFCS     = errors.New("dot11: frame check sequence mismatch")
	ErrNotMgmt    = errors.New("dot11: not a management frame")
)

const mgmtHeaderLen = 24
const fixedFieldsLen = 12 // timestamp + beacon interval + capability

// hasFixedFields reports whether the subtype carries the 12-byte fixed
// field block.
func (f *Frame) hasFixedFields() bool {
	return f.Subtype == SubtypeBeacon || f.Subtype == SubtypeProbeResp
}

// SSID returns the SSID element's value and whether one is present.
func (f *Frame) SSID() (string, bool) {
	for _, ie := range f.IEs {
		if ie.ID == EIDSSID {
			return string(ie.Data), true
		}
	}
	return "", false
}

// Channel returns the DS Parameter Set channel and whether one is present.
func (f *Frame) Channel() (int, bool) {
	for _, ie := range f.IEs {
		if ie.ID == EIDDSParameterSet && len(ie.Data) == 1 {
			return int(ie.Data[0]), true
		}
	}
	return 0, false
}

// EncodedLen is the length of the frame's wire encoding, FCS included.
func (f *Frame) EncodedLen() int {
	n := mgmtHeaderLen + 4
	if f.hasFixedFields() {
		n += fixedFieldsLen
	}
	for _, ie := range f.IEs {
		n += 2 + len(ie.Data)
	}
	return n
}

// Encode serializes the frame to wire format including the trailing FCS.
func (f *Frame) Encode() ([]byte, error) {
	return f.AppendEncode(nil)
}

// AppendEncode appends the frame's wire encoding, FCS included, to dst
// and returns the extended slice. dst grows at most once; on error it
// is returned unchanged.
func (f *Frame) AppendEncode(dst []byte) ([]byte, error) {
	if f.Type != TypeManagement {
		return dst, ErrNotMgmt
	}
	for _, ie := range f.IEs {
		if len(ie.Data) > 255 {
			return dst, fmt.Errorf("dot11: IE %d data too long (%d bytes)", ie.ID, len(ie.Data))
		}
	}
	start := len(dst)
	buf := slices.Grow(dst, f.EncodedLen())

	fc := uint16(f.Type)<<2 | uint16(f.Subtype)<<4 // version 0
	buf = binary.LittleEndian.AppendUint16(buf, fc)
	buf = binary.LittleEndian.AppendUint16(buf, f.Duration)
	buf = append(buf, f.Addr1[:]...)
	buf = append(buf, f.Addr2[:]...)
	buf = append(buf, f.Addr3[:]...)
	seqCtl := f.Seq<<4 | uint16(f.Frag&0x0f)
	buf = binary.LittleEndian.AppendUint16(buf, seqCtl)

	if f.hasFixedFields() {
		buf = binary.LittleEndian.AppendUint64(buf, f.Timestamp)
		buf = binary.LittleEndian.AppendUint16(buf, f.BeaconInterval)
		buf = binary.LittleEndian.AppendUint16(buf, f.Capability)
	}
	for _, ie := range f.IEs {
		buf = append(buf, ie.ID, byte(len(ie.Data)))
		buf = append(buf, ie.Data...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:]))
	return buf, nil
}

// Decode parses a wire-format frame, verifying the FCS. The frame owns
// its memory: b is copied once and the information elements alias the
// copy, so the caller may reuse b.
func Decode(b []byte) (*Frame, error) {
	f := new(Frame)
	if err := f.Parse(bytes.Clone(b)); err != nil {
		return nil, err
	}
	return f, nil
}

// Parse decodes a wire-format frame into f in place, with the checks
// Decode makes (length, FCS, management type, fixed fields and IE
// framing). It overwrites every field of f and reuses the storage of
// f.IEs, whose data alias b: f is valid only while b is unchanged.
// After an error f holds no meaningful frame.
func (f *Frame) Parse(b []byte) error {
	if len(b) < mgmtHeaderLen+4 {
		return ErrShortFrame
	}
	payload, fcsBytes := b[:len(b)-4], b[len(b)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(fcsBytes) {
		return ErrBadFCS
	}
	fc := binary.LittleEndian.Uint16(payload[0:2])
	seqCtl := binary.LittleEndian.Uint16(payload[22:24])
	*f = Frame{
		Type:     FrameType(fc >> 2 & 0x3),
		Subtype:  Subtype(fc >> 4 & 0xf),
		Duration: binary.LittleEndian.Uint16(payload[2:4]),
		Addr1:    MAC(payload[4:10]),
		Addr2:    MAC(payload[10:16]),
		Addr3:    MAC(payload[16:22]),
		Seq:      seqCtl >> 4,
		Frag:     uint8(seqCtl & 0xf),
		IEs:      f.IEs[:0],
	}
	if f.Type != TypeManagement {
		return ErrNotMgmt
	}

	rest := payload[mgmtHeaderLen:]
	if f.hasFixedFields() {
		if len(rest) < fixedFieldsLen {
			return ErrShortFrame
		}
		f.Timestamp = binary.LittleEndian.Uint64(rest[0:8])
		f.BeaconInterval = binary.LittleEndian.Uint16(rest[8:10])
		f.Capability = binary.LittleEndian.Uint16(rest[10:12])
		rest = rest[fixedFieldsLen:]
	}
	// Check the element framing and count the elements first, so f.IEs
	// grows at most once.
	n := 0
	for r := rest; len(r) > 0; n++ {
		if len(r) < 2 || len(r) < 2+int(r[1]) {
			return ErrShortFrame
		}
		r = r[2+int(r[1]):]
	}
	f.IEs = slices.Grow(f.IEs, n)
	for len(rest) > 0 {
		end := 2 + int(rest[1])
		// A full slice expression, so an append to one element's data
		// cannot overwrite the next element.
		f.IEs = append(f.IEs, IE{ID: rest[0], Data: rest[2:end:end]})
		rest = rest[end:]
	}
	return nil
}

// NewProbeRequest builds a broadcast probe request from src for the given
// SSID ("" for the wildcard directed at any AP).
func NewProbeRequest(src MAC, ssid string, seq uint16) *Frame {
	return &Frame{
		Type:    TypeManagement,
		Subtype: SubtypeProbeRequest,
		Addr1:   Broadcast,
		Addr2:   src,
		Addr3:   Broadcast,
		Seq:     seq,
		IEs: []IE{
			{ID: EIDSSID, Data: []byte(ssid)},
			{ID: EIDSupportedRates, Data: []byte{0x82, 0x84, 0x8b, 0x96}},
		},
	}
}

// NewProbeResponse builds an AP's unicast response to a probe request.
func NewProbeResponse(ap, dst MAC, ssid string, channel int, seq uint16) *Frame {
	return &Frame{
		Type:           TypeManagement,
		Subtype:        SubtypeProbeResp,
		Addr1:          dst,
		Addr2:          ap,
		Addr3:          ap,
		Seq:            seq,
		BeaconInterval: 100,
		Capability:     0x0401,
		IEs: []IE{
			{ID: EIDSSID, Data: []byte(ssid)},
			{ID: EIDSupportedRates, Data: []byte{0x82, 0x84, 0x8b, 0x96}},
			{ID: EIDDSParameterSet, Data: []byte{byte(channel)}},
		},
	}
}

// NewBeacon builds an AP beacon.
func NewBeacon(ap MAC, ssid string, channel int, timestamp uint64, seq uint16) *Frame {
	return &Frame{
		Type:           TypeManagement,
		Subtype:        SubtypeBeacon,
		Addr1:          Broadcast,
		Addr2:          ap,
		Addr3:          ap,
		Seq:            seq,
		Timestamp:      timestamp,
		BeaconInterval: 100,
		Capability:     0x0401,
		IEs: []IE{
			{ID: EIDSSID, Data: []byte(ssid)},
			{ID: EIDSupportedRates, Data: []byte{0x82, 0x84, 0x8b, 0x96}},
			{ID: EIDDSParameterSet, Data: []byte{byte(channel)}},
		},
	}
}
