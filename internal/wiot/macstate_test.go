package wiot

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"
)

// aesCMAC is AES-128-CMAC under a fresh key schedule: the reference the
// RFC 4493 vectors and the reused-state tests check against.
func aesCMAC(key []byte, msg []byte) [16]byte {
	c := newCMAC(key)
	return c.sum(msg)
}

// freshFrameMAC is the reference tag: a MAC state built from scratch for
// one message, as every frame paid for before sessions kept theirs.
func freshFrameMAC(key []byte, alg MACAlg, msg []byte) uint64 {
	if alg == MACCMAC {
		tag := aesCMAC(key[:authCMACKeySize], msg)
		return binary.LittleEndian.Uint64(tag[:authTagSize])
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(msg)
	return binary.LittleEndian.Uint64(mac.Sum(nil)[:authTagSize])
}

// TestMACStateMatchesFresh: over a 100-frame sequence of varying sizes,
// a session's reused MAC state (sealing side) and the station's
// frameMAC (verifying side) give exactly the tags of a fresh
// hmac.New / aesCMAC per frame, for both algorithms.
func TestMACStateMatchesFresh(t *testing.T) {
	key := DeriveSensorKey(testMaster, SensorECG)
	for _, alg := range []MACAlg{MACHMAC, MACCMAC} {
		sess := ForgeSession(77, SensorECG, alg, key)
		verify := newFrameMAC(key, alg)
		for seq := uint32(0); seq < 100; seq++ {
			f, _ := testFrame(t, seq, int(seq*13)%(DefaultChunkSize+1))
			rec, err := sess.SealFrame(&f)
			if err != nil {
				t.Fatal(err)
			}
			msg := rec[:len(rec)-authTagSize-crcSize]
			got := binary.LittleEndian.Uint64(rec[len(msg):])
			want := freshFrameMAC(key, alg, msg)
			if got != want {
				t.Fatalf("%v frame %d: sealed tag %016x, fresh MAC %016x", alg, seq, got, want)
			}
			if v := verify.tag(msg); v != want {
				t.Fatalf("%v frame %d: station tag %016x, fresh MAC %016x", alg, seq, v, want)
			}
		}
	}
}

// TestMACStateRehandshakeNewKeyOnly: a second handshake on one
// connection replaces the station's keyed MAC state. Frames sealed under
// the new session verify; a frame naming the new session id but MAC'd
// under the old key is a MAC rejection, not an accepted frame.
func TestMACStateRehandshakeNewKeyOnly(t *testing.T) {
	for _, alg := range []MACAlg{MACHMAC, MACCMAC} {
		st, _, addr := authHarness(t, &flagEveryOther{})
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		cfg := ecgAuth()
		cfg.Alg = alg
		if err := writeDeadlined(conn, appendCtrl(nil, ctrlRecord{Kind: ctrlHello}), time.Second); err != nil {
			t.Fatal(err)
		}
		sc := newFrameScanner(conn)
		send := func(s *Session, seq uint32) {
			t.Helper()
			rec, err := s.SealFrame(&Frame{Sensor: SensorECG, Seq: seq})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		first, err := clientHandshake(conn, sc, cfg, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		send(first, 0)
		waitUntil(t, 2*time.Second, func() bool { return st.Stats().AuthFrames == 1 }, "the first session's frame")

		second, err := clientHandshake(conn, sc, cfg, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(first.key, second.key) {
			t.Fatalf("%v: re-handshake negotiated the same session key", alg)
		}
		send(ForgeSession(second.ID, SensorECG, alg, first.key), 1)
		waitUntil(t, 2*time.Second, func() bool { return st.Stats().AuthRejectMAC == 1 }, "the old-key frame's MAC rejection")
		send(second, 1)
		waitUntil(t, 2*time.Second, func() bool { return st.Stats().AuthFrames == 2 }, "the new session's frame")
	}
}

// TestMACStateConcurrentSeal: one Session sealing from many goroutines
// at once (run under -race) gives every caller the tag a fresh MAC
// gives.
func TestMACStateConcurrentSeal(t *testing.T) {
	for _, alg := range []MACAlg{MACHMAC, MACCMAC} {
		sess := ForgeSession(3, SensorECG, alg, []byte("concurrent"))
		const workers, perWorker = 8, 50
		var wg sync.WaitGroup
		errs := make(chan string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perWorker; i++ {
					rec, err := sess.SealFrame(&Frame{Sensor: SensorECG, Seq: uint32(w*perWorker + i)})
					if err != nil {
						errs <- err.Error()
						return
					}
					msg := rec[:len(rec)-authTagSize-crcSize]
					if binary.LittleEndian.Uint64(rec[len(msg):]) != freshFrameMAC(sess.key, alg, msg) {
						errs <- "concurrent seal produced a wrong tag"
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("%v: %s", alg, e)
		}
	}
}
