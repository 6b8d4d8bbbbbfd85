package bcc

import "fmt"

// MaxKeyRounds is the longest trit sequence a TranscriptKey can hold:
// two 64-bit words at 2 bits per trit.
const MaxKeyRounds = 64

// TranscriptKey is a bit-packed trit sequence over {0, 1, ⊥}: the
// broadcast string of one vertex over up to MaxKeyRounds rounds of a
// BCC(1) run, encoded 2 bits per trit. It is a comparable value type, so
// it replaces TritString-built strings as map keys and equality checks in
// the transcript-bucketing hot paths (class counting, active-edge
// matching) without allocating.
//
// The zero value is the empty sequence.
type TranscriptKey struct {
	lo, hi uint64
	n      uint8
}

// trit codes: 2 bits per round, '0' → 0, '1' → 1, ⊥ → 2.
const (
	tritZero   = 0
	tritOne    = 1
	tritSilent = 2
)

func (k *TranscriptKey) push(code uint64) error {
	i := int(k.n)
	if i >= MaxKeyRounds {
		return fmt.Errorf("bcc: transcript key overflows %d rounds", MaxKeyRounds)
	}
	if i < 32 {
		k.lo |= code << uint(2*i)
	} else {
		k.hi |= code << uint(2*(i-32))
	}
	k.n++
	return nil
}

// AppendTrit appends one 1-bit-or-silent message to the key. It errors on
// messages longer than one bit (no trit encoding) and on overflow.
func (k *TranscriptKey) AppendTrit(m Message) error {
	switch {
	case m.IsSilent():
		return k.push(tritSilent)
	case m.Len == 1 && m.Bits == 0:
		return k.push(tritZero)
	case m.Len == 1:
		return k.push(tritOne)
	default:
		return fmt.Errorf("bcc: message %q is not a single trit", m)
	}
}

// KeyOfTrits packs a sequence of 1-bit-or-silent messages into a
// TranscriptKey: the packed counterpart of TritString.
func KeyOfTrits(msgs []Message) (TranscriptKey, error) {
	var k TranscriptKey
	for i, m := range msgs {
		if err := k.AppendTrit(m); err != nil {
			return TranscriptKey{}, fmt.Errorf("round %d: %w", i+1, err)
		}
	}
	return k, nil
}

// ParseKey packs a string over {'0', '1', '_'} (the TritString alphabet)
// into a TranscriptKey.
func ParseKey(s string) (TranscriptKey, error) {
	var k TranscriptKey
	for i := 0; i < len(s); i++ {
		var code uint64
		switch s[i] {
		case '0':
			code = tritZero
		case '1':
			code = tritOne
		case '_':
			code = tritSilent
		default:
			return TranscriptKey{}, fmt.Errorf("bcc: trit string byte %d is %q, want '0', '1' or '_'", i, s[i])
		}
		if err := k.push(code); err != nil {
			return TranscriptKey{}, err
		}
	}
	return k, nil
}

// Len returns the number of trits in the key.
func (k TranscriptKey) Len() int { return int(k.n) }

// TritAt returns trit i as the TritString character '0', '1' or '_'.
func (k TranscriptKey) TritAt(i int) byte {
	var code uint64
	if i < 32 {
		code = (k.lo >> uint(2*i)) & 3
	} else {
		code = (k.hi >> uint(2*(i-32))) & 3
	}
	switch code {
	case tritZero:
		return '0'
	case tritOne:
		return '1'
	default:
		return '_'
	}
}

// String renders the key in the TritString alphabet; ParseKey inverts it.
func (k TranscriptKey) String() string {
	b := make([]byte, k.Len())
	for i := range b {
		b[i] = k.TritAt(i)
	}
	return string(b)
}

// ParseKeys packs a slice of trit strings (e.g. a Labeler's per-vertex
// labels) into TranscriptKeys.
func ParseKeys(labels []string) ([]TranscriptKey, error) {
	keys := make([]TranscriptKey, len(labels))
	for i, s := range labels {
		k, err := ParseKey(s)
		if err != nil {
			return nil, fmt.Errorf("label %d: %w", i, err)
		}
		keys[i] = k
	}
	return keys, nil
}

// SentTritKeys returns, for every vertex, the packed {0,1,⊥}-sequence it
// broadcast over the run: the allocation-free counterpart of
// SentTritLabels for transcript-bucketing hot paths.
func SentTritKeys(res *Result) ([]TranscriptKey, error) {
	keys := make([]TranscriptKey, len(res.Transcripts))
	for v := range res.Transcripts {
		k, err := KeyOfTrits(res.Transcripts[v].Sent)
		if err != nil {
			return nil, fmt.Errorf("vertex %d: %w", v, err)
		}
		keys[v] = k
	}
	return keys, nil
}
