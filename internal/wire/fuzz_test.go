package wire

import (
	"bytes"
	"testing"
)

// FuzzWireFrame drives both frame parsers with arbitrary bytes, as the read
// loops hand them over (one line, newline stripped). The codec is the only
// parser of network bytes between the router and its nodes: neither parser
// may panic, an accepted frame never carries seq 0, and whatever parses
// must survive an encode→parse round trip unchanged.
func FuzzWireFrame(f *testing.F) {
	for _, seed := range []string{
		// Request frames.
		"1 0 R 0 16384",
		"7 3 W 16384 32768 42",
		"18446744073709551615 1 r 512 512 18446744073709551615",
		"2\t0 R 0 4096 # comment",
		"3 1,W,0,4096",
		"0 0 R 0 4096",
		"18446744073709551616 0 R 0 4096",
		"5 -1 R -5 0",
		"9 0 X 0 4096",
		"4 0 R 0",
		// Reply frames.
		"1 ok 1000 77",
		"12 ok 9223372036854775807 0",
		"3 rej migrating",
		"4 rej upstream trailing",
		"5 rej queue_full\r",
		"6 ok 1 2 3",
		"7 ok -1 2",
		"8 ok 9223372036854775808 1",
		"9 nope 1 2",
		"0 ok 1 2",
		// Garbage.
		"",
		" ",
		"\t\r",
		"ok",
		"1 rej",
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, line []byte) {
		if seq, req, err := ParseRequest(line); err == nil {
			if seq == 0 {
				t.Fatalf("request %q accepted with seq 0", line)
			}
			enc := AppendRequest(nil, seq, req)
			seq2, req2, err := ParseRequest(enc[:len(enc)-1])
			if err != nil {
				t.Fatalf("request %q re-encodes to unparseable %q: %v", line, enc, err)
			}
			if seq2 != seq || req2 != req {
				t.Fatalf("request round trip changed seq %d %+v to seq %d %+v", seq, req, seq2, req2)
			}
		}
		if rep, err := ParseReply(line); err == nil {
			if rep.Seq == 0 {
				t.Fatalf("reply %q accepted with seq 0", line)
			}
			var enc []byte
			if rep.OK {
				enc = AppendOK(nil, rep.Seq, rep.LatencyNS, rep.SimNS)
			} else {
				enc = AppendRej(nil, rep.Seq, ReasonString(rep.Reason))
			}
			back, err := ParseReply(enc[:len(enc)-1])
			if err != nil {
				t.Fatalf("reply %q re-encodes to unparseable %q: %v", line, enc, err)
			}
			if back.Seq != rep.Seq || back.OK != rep.OK || back.LatencyNS != rep.LatencyNS ||
				back.SimNS != rep.SimNS || !bytes.Equal(back.Reason, rep.Reason) {
				t.Fatalf("reply round trip changed %+v to %+v", rep, back)
			}
		}
	})
}
