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
		if _, err := ReadFrame(r); err != io.EOF {
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

// TestFrameEncodersByteIdentical pins AppendFrame against the
// io.Writer-based encoder: the TCP write combiner batches AppendFrame
// output, so both paths must emit exactly the same bytes.
func TestFrameEncodersByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < 500; i++ {
		f := randFrame(rng)
		appended := AppendFrame(nil, &f)
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &f); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(appended, buf.Bytes()) {
			t.Fatalf("frame %d: AppendFrame and WriteFrame disagree:\n%x\n%x",
				i, appended, buf.Bytes())
		}
	}
}
