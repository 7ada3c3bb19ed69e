package wire

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"testing"
)

// chunkReader yields its underlying bytes in caller-chosen chunk
// sizes, simulating arbitrary TCP read boundaries.
type chunkReader struct {
	data   []byte
	chunks []int
	pos    int
	ci     int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if c.pos >= len(c.data) {
		return 0, io.EOF
	}
	n := len(c.data) - c.pos
	if c.ci < len(c.chunks) {
		if lim := c.chunks[c.ci]; lim < n {
			n = lim
		}
		c.ci++
	}
	if n > len(p) {
		n = len(p)
	}
	copy(p, c.data[c.pos:c.pos+n])
	c.pos += n
	return n, nil
}

// randFrame draws a frame whose optional envelope fields are each
// present or absent at random.
func randFrame(rng *rand.Rand) Frame {
	payload := make([]byte, rng.Intn(600))
	rng.Read(payload)
	opt := func() uint64 {
		if rng.Intn(2) == 0 {
			return 0
		}
		return rng.Uint64() >> uint(rng.Intn(64))
	}
	f := Frame{
		From:    rng.Intn(16),
		To:      rng.Intn(16),
		Tag:     rng.Uint64() >> uint(rng.Intn(60)),
		TID:     opt(),
		Seq:     opt(),
		Ack:     opt(),
		Dedup:   opt(),
		View:    opt(),
		Kind:    uint8(rng.Intn(256)),
		Payload: payload,
	}
	if rng.Intn(2) == 0 {
		f.Time = rng.NormFloat64()
	}
	return f
}

func framesEqual(t *testing.T, i int, got, want *Frame) {
	t.Helper()
	if !sameFrame(got, want) {
		t.Fatalf("frame %d mismatch: got %+v want %+v", i, got, want)
	}
}

// TestCoalescedStreamChunkedDecode is the write-combiner's codec
// property: any number of frames appended into one batch buffer (as
// tcpConn coalescing does) must decode identically through a reader
// that delivers the stream at arbitrary byte boundaries (as TCP
// does). 200 rounds of random frames × random chunking.
func TestCoalescedStreamChunkedDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(12)
		frames := make([]Frame, n)
		var batch []byte
		for i := range frames {
			frames[i] = randFrame(rng)
			batch = AppendFrame(batch, &frames[i])
		}
		chunks := make([]int, 64)
		for i := range chunks {
			chunks[i] = 1 + rng.Intn(97)
		}
		r := bufio.NewReaderSize(&chunkReader{data: batch, chunks: chunks}, 1+rng.Intn(256))
		var scratch []byte
		for i := range frames {
			var got Frame
			var err error
			got, scratch, err = ReadFrameScratch(r, scratch)
			if err != nil {
				t.Fatalf("round %d frame %d: %v", round, i, err)
			}
			framesEqual(t, i, &got, &frames[i])
		}
		if _, _, err := ReadFrameScratch(r, scratch); err != io.EOF {
			t.Fatalf("round %d: want clean EOF after %d frames, got %v", round, n, err)
		}
	}
}

// TestDecodeFrameBufWalksBatch pins the in-memory batch decoder:
// DecodeFrameBuf consumes exactly one frame per call and returns the
// untouched remainder.
func TestDecodeFrameBufWalksBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	frames := make([]Frame, 20)
	var batch []byte
	for i := range frames {
		frames[i] = randFrame(rng)
		batch = AppendFrame(batch, &frames[i])
	}
	rest := batch
	for i := range frames {
		var got Frame
		var err error
		got, rest, err = DecodeFrameBuf(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		framesEqual(t, i, &got, &frames[i])
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after decoding every frame", len(rest))
	}
}

// TestFrameEncodersByteIdentical pins AppendFrame's batch contract:
// the TCP write combiner appends frame after frame into one pooled
// write buffer, so appending onto a non-empty buffer must emit exactly
// the bytes of the frame encoded alone, leaving the prefix untouched.
func TestFrameEncodersByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	batch := GetBuf()
	for i := 0; i < 500; i++ {
		f := randFrame(rng)
		alone := AppendFrame(nil, &f)
		prefix := append([]byte(nil), batch...)
		batch = AppendFrame(batch, &f)
		if !bytes.Equal(batch[:len(prefix)], prefix) || !bytes.Equal(batch[len(prefix):], alone) {
			t.Fatalf("frame %d: appended encoding differs from the standalone one:\n%x\n%x",
				i, batch[len(prefix):], alone)
		}
		if i%20 == 19 {
			batch = batch[:0]
		}
	}
	PutBuf(batch)
}
