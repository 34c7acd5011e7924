package enclave

import (
	"crypto/rand"
	"errors"
	"testing"
)

func newTestEnclave(t *testing.T) *Enclave {
	t.Helper()
	e, err := New(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAttestationRoundTrip(t *testing.T) {
	e := newTestEnclave(t)
	r := e.AttestationReport()
	if err := VerifyReport(r); err != nil {
		t.Fatalf("VerifyReport: %v", err)
	}
}

func TestAttestationTamperedSignature(t *testing.T) {
	e := newTestEnclave(t)
	r := e.AttestationReport()
	r.Signature[0] ^= 0xff
	if err := VerifyReport(r); !errors.Is(err, ErrBadReport) {
		t.Fatalf("err = %v, want ErrBadReport", err)
	}
}

func TestAttestationWrongMeasurement(t *testing.T) {
	e := newTestEnclave(t)
	r := e.AttestationReport()
	// Re-sign a report with a modified measurement using a fresh enclave's
	// key to simulate a correctly signed but wrong enclave binary.
	r.Measurement[0] ^= 0xff
	if err := VerifyReport(r); err == nil {
		t.Fatal("expected verification failure for modified measurement")
	}
}

func TestSealSubmitSimilarity(t *testing.T) {
	e := newTestEnclave(t)
	report := e.AttestationReport()
	dists := [][]int{
		{30, 0, 0},
		{0, 30, 0},
		{30, 0, 0},
	}
	for id, counts := range dists {
		sub, err := Seal(report, id, counts, rand.Reader)
		if err != nil {
			t.Fatalf("Seal client %d: %v", id, err)
		}
		if err := e.Submit(sub); err != nil {
			t.Fatalf("Submit client %d: %v", id, err)
		}
	}
	if e.SubmissionCount() != 3 {
		t.Fatalf("SubmissionCount = %d", e.SubmissionCount())
	}
	m, err := e.SimilarityMatrix(3)
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 2) != 0 {
		t.Fatalf("identical clients distance = %v, want 0", m.At(0, 2))
	}
	if m.At(0, 1) <= 0 {
		t.Fatalf("different clients distance = %v, want > 0", m.At(0, 1))
	}
}

func TestSubmitDuplicateRejected(t *testing.T) {
	e := newTestEnclave(t)
	report := e.AttestationReport()
	sub, err := Seal(report, 1, []int{5, 5}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(sub); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(sub); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
}

func TestSubmitTamperedCiphertext(t *testing.T) {
	e := newTestEnclave(t)
	report := e.AttestationReport()
	sub, err := Seal(report, 1, []int{5, 5}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sub.Ciphertxt[0] ^= 0xff
	if err := e.Submit(sub); !errors.Is(err, ErrBadCiphertext) {
		t.Fatalf("err = %v, want ErrBadCiphertext", err)
	}
}

func TestSubmitWrongClientIDRejected(t *testing.T) {
	// A submission re-labelled with another client's ID must fail because
	// the client ID is bound as AEAD associated data.
	e := newTestEnclave(t)
	report := e.AttestationReport()
	sub, err := Seal(report, 1, []int{5, 5}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sub.ClientID = 2
	if err := e.Submit(sub); !errors.Is(err, ErrBadCiphertext) {
		t.Fatalf("err = %v, want ErrBadCiphertext", err)
	}
}

func TestSealRejectsBadReport(t *testing.T) {
	e := newTestEnclave(t)
	r := e.AttestationReport()
	r.Signature[0] ^= 1
	if _, err := Seal(r, 0, []int{1}, rand.Reader); !errors.Is(err, ErrBadReport) {
		t.Fatalf("err = %v, want ErrBadReport", err)
	}
}

func TestSimilarityMatrixNoSubmissions(t *testing.T) {
	e := newTestEnclave(t)
	if _, err := e.SimilarityMatrix(3); !errors.Is(err, ErrNoSubmissions) {
		t.Fatalf("err = %v, want ErrNoSubmissions", err)
	}
}

func TestSimilarityMatrixMissingClientUniform(t *testing.T) {
	e := newTestEnclave(t)
	report := e.AttestationReport()
	sub, err := Seal(report, 0, []int{10, 10}, rand.Reader) // exactly uniform
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit(sub); err != nil {
		t.Fatal(err)
	}
	m, err := e.SimilarityMatrix(2)
	if err != nil {
		t.Fatal(err)
	}
	// Client 1 never submitted: treated as uniform, so distance to the
	// uniform client 0 is zero.
	if m.At(0, 1) != 0 {
		t.Fatalf("distance to defaulted uniform client = %v", m.At(0, 1))
	}
}

func TestSubmissionsAreEncrypted(t *testing.T) {
	// The ciphertext must not contain the plaintext JSON counts.
	e := newTestEnclave(t)
	report := e.AttestationReport()
	sub, err := Seal(report, 3, []int{123456789, 0, 0}, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	needle := []byte("123456789")
	if containsSub(sub.Ciphertxt, needle) {
		t.Fatal("ciphertext leaks plaintext counts")
	}
	_ = e
}

func containsSub(haystack, needle []byte) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		match := true
		for j := range needle {
			if haystack[i+j] != needle[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// SubmissionCount returns how many clients have submitted distributions.
func (e *Enclave) SubmissionCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.submissions)
}
