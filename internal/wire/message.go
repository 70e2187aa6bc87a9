// Package wire implements the BitTorrent peer wire protocol over real
// network connections — the instrumented-client side of the paper. The
// simulator (internal/bittorrent) reproduces the paper's experiments at
// scale; this package is the deployment path: the same fragment counting
// on actual TCP sockets, exercised in-process over loopback.
//
// The subset implemented is what a synchronized broadcast needs:
// handshake, BITFIELD, HAVE, INTERESTED/NOT_INTERESTED, CHOKE/UNCHOKE,
// REQUEST, PIECE and CANCEL, with 16 KiB blocks as the request unit — the
// fragment the paper's metric counts.
//
// A Client has one lock, Client.mu, which guards its piece state and the
// protocol state of every connection; send may be called under it
// because it only queues a message for the connection's writer
// goroutine and never blocks.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Message type IDs from the BitTorrent specification.
const (
	MsgChoke         byte = 0
	MsgUnchoke       byte = 1
	MsgInterested    byte = 2
	MsgNotInterested byte = 3
	MsgHave          byte = 4
	MsgBitfield      byte = 5
	MsgRequest       byte = 6
	MsgPiece         byte = 7
	MsgCancel        byte = 8
)

// BlockSize is the request granularity: the 16 KiB fragment of the paper.
const BlockSize = 16 * 1024

// MaxMessageSize bounds accepted messages (a PIECE with one block plus
// headers); anything larger indicates a corrupt or hostile stream.
const MaxMessageSize = BlockSize + 16

// Message is one wire message. KeepAlive is encoded as a zero-length
// message with no ID.
type Message struct {
	KeepAlive bool
	ID        byte
	// Index is the piece index for HAVE/REQUEST/PIECE/CANCEL.
	Index uint32
	// Begin is the block offset within the piece (REQUEST/PIECE/CANCEL).
	Begin uint32
	// Length is the requested length (REQUEST/CANCEL).
	Length uint32
	// Payload is the bitfield for BITFIELD or the block data for PIECE.
	Payload []byte
}

// Encode writes the message in wire format, length prefix and body in
// one Write: an unbuffered net.Conn makes each Write a system call.
func Encode(w io.Writer, m Message) error {
	b := make([]byte, 4, 4+13+len(m.Payload)) // the prefix is filled last
	if !m.KeepAlive {
		b = append(b, m.ID)
		switch m.ID {
		case MsgChoke, MsgUnchoke, MsgInterested, MsgNotInterested:
		case MsgHave:
			b = binary.BigEndian.AppendUint32(b, m.Index)
		case MsgBitfield:
			b = append(b, m.Payload...)
		case MsgRequest, MsgCancel:
			b = binary.BigEndian.AppendUint32(b, m.Index)
			b = binary.BigEndian.AppendUint32(b, m.Begin)
			b = binary.BigEndian.AppendUint32(b, m.Length)
		case MsgPiece:
			b = binary.BigEndian.AppendUint32(b, m.Index)
			b = binary.BigEndian.AppendUint32(b, m.Begin)
			b = append(b, m.Payload...)
		default:
			return fmt.Errorf("wire: unknown message id %d", m.ID)
		}
	}
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))
	_, err := w.Write(b)
	return err
}

// Decode reads one message from the stream.
func Decode(r io.Reader) (Message, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return Message{}, err
	}
	length := binary.BigEndian.Uint32(prefix[:])
	if length == 0 {
		return Message{KeepAlive: true}, nil
	}
	if length > MaxMessageSize {
		return Message{}, fmt.Errorf("wire: message of %d bytes exceeds limit %d", length, MaxMessageSize)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		return Message{}, err
	}
	m := Message{ID: body[0]}
	rest := body[1:]
	switch m.ID {
	case MsgChoke, MsgUnchoke, MsgInterested, MsgNotInterested:
		if len(rest) != 0 {
			return Message{}, fmt.Errorf("wire: message %d with unexpected payload", m.ID)
		}
	case MsgHave:
		if len(rest) != 4 {
			return Message{}, fmt.Errorf("wire: HAVE with %d payload bytes", len(rest))
		}
		m.Index = binary.BigEndian.Uint32(rest)
	case MsgBitfield:
		m.Payload = rest
	case MsgRequest, MsgCancel:
		if len(rest) != 12 {
			return Message{}, fmt.Errorf("wire: REQUEST/CANCEL with %d payload bytes", len(rest))
		}
		m.Index = binary.BigEndian.Uint32(rest)
		m.Begin = binary.BigEndian.Uint32(rest[4:])
		m.Length = binary.BigEndian.Uint32(rest[8:])
	case MsgPiece:
		if len(rest) < 8 {
			return Message{}, fmt.Errorf("wire: PIECE with %d payload bytes", len(rest))
		}
		m.Index = binary.BigEndian.Uint32(rest)
		m.Begin = binary.BigEndian.Uint32(rest[4:])
		m.Payload = rest[8:]
	default:
		return Message{}, fmt.Errorf("wire: unknown message id %d", m.ID)
	}
	return m, nil
}

// protocolString is the BitTorrent handshake identifier.
const protocolString = "BitTorrent protocol"

// Handshake is the fixed-size connection preamble.
type Handshake struct {
	InfoHash [20]byte
	PeerID   [20]byte
}

// WriteHandshake sends the 68-byte handshake.
func WriteHandshake(w io.Writer, h Handshake) error {
	buf := make([]byte, 0, 68)
	buf = append(buf, byte(len(protocolString)))
	buf = append(buf, protocolString...)
	buf = append(buf, make([]byte, 8)...) // reserved
	buf = append(buf, h.InfoHash[:]...)
	buf = append(buf, h.PeerID[:]...)
	_, err := w.Write(buf)
	return err
}

// ReadHandshake reads and validates the peer's handshake.
func ReadHandshake(r io.Reader) (Handshake, error) {
	head := make([]byte, 1)
	if _, err := io.ReadFull(r, head); err != nil {
		return Handshake{}, err
	}
	if int(head[0]) != len(protocolString) {
		return Handshake{}, fmt.Errorf("wire: bad protocol string length %d", head[0])
	}
	rest := make([]byte, len(protocolString)+8+20+20)
	if _, err := io.ReadFull(r, rest); err != nil {
		return Handshake{}, err
	}
	if string(rest[:len(protocolString)]) != protocolString {
		return Handshake{}, fmt.Errorf("wire: unexpected protocol %q", rest[:len(protocolString)])
	}
	var h Handshake
	copy(h.InfoHash[:], rest[len(protocolString)+8:])
	copy(h.PeerID[:], rest[len(protocolString)+8+20:])
	return h, nil
}
