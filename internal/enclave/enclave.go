// Package enclave simulates the Intel SGX enclave that Aergia's federator
// hosts to evaluate client dataset similarity without learning the clients'
// private class distributions (paper §3.1, §4.4).
//
// The hardware root of trust is replaced by a software one, but the
// *protocol* is the paper's: the enclave publishes an attestation report
// binding its code measurement to a key-exchange key; clients verify the
// report (remote attestation), derive a sealed channel via X25519 ECDH, and
// submit their encrypted per-class label counts; the similarity matrix is
// computed inside the enclave, and only the matrix — never a plaintext
// distribution — crosses the trust boundary. Package encapsulation enforces
// the boundary: no accessor exposes decrypted distributions.
package enclave

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"aergia/internal/similarity"
)

// codeIdentity stands in for the SGX MRENCLAVE measurement: a digest of the
// enclave code that clients pin during remote attestation.
const codeIdentity = "aergia-similarity-enclave-v1"

// Errors reported by the attestation and submission protocol.
var (
	ErrBadReport     = errors.New("enclave: attestation report verification failed")
	ErrBadMeasure    = errors.New("enclave: unexpected enclave measurement")
	ErrBadCiphertext = errors.New("enclave: cannot decrypt submission")
	ErrNoSubmissions = errors.New("enclave: no submissions received")
	ErrDuplicate     = errors.New("enclave: duplicate submission for client")
)

// Report is the (simulated) remote attestation report: the enclave's code
// measurement and key-exchange public key, signed by the enclave identity.
type Report struct {
	Measurement []byte `json:"measurement"`
	SigningKey  []byte `json:"signingKey"`  // ed25519 public key
	ExchangeKey []byte `json:"exchangeKey"` // X25519 public key
	Signature   []byte `json:"signature"`
}

// Enclave holds the sealed state of the similarity enclave.
type Enclave struct {
	signKey ed25519.PrivateKey
	kemKey  *ecdh.PrivateKey

	mu          sync.Mutex
	submissions map[int][]int // clientID -> decrypted class counts (sealed state)
}

// New creates an enclave instance with fresh identity and exchange keys
// drawn from the given entropy source.
func New(rand io.Reader) (*Enclave, error) {
	_, signKey, err := ed25519.GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("enclave identity key: %w", err)
	}
	kemKey, err := ecdh.X25519().GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("enclave exchange key: %w", err)
	}
	return &Enclave{
		signKey:     signKey,
		kemKey:      kemKey,
		submissions: make(map[int][]int),
	}, nil
}

// AttestationReport produces the report clients verify before submitting.
func (e *Enclave) AttestationReport() Report {
	meas := measurement()
	pub, ok := e.signKey.Public().(ed25519.PublicKey)
	if !ok {
		// ed25519 private keys always expose ed25519 public keys.
		panic("enclave: unexpected public key type")
	}
	body := reportBody(meas, e.kemKey.PublicKey().Bytes())
	return Report{
		Measurement: meas,
		SigningKey:  []byte(pub),
		ExchangeKey: e.kemKey.PublicKey().Bytes(),
		Signature:   ed25519.Sign(e.signKey, body),
	}
}

func measurement() []byte {
	h := sha256.Sum256([]byte(codeIdentity))
	return h[:]
}

func reportBody(meas, kem []byte) []byte {
	body := make([]byte, 0, len(meas)+len(kem))
	body = append(body, meas...)
	body = append(body, kem...)
	return body
}

// VerifyReport performs the client-side remote attestation check: the
// signature must verify and the measurement must match the pinned enclave
// code identity.
func VerifyReport(r Report) error {
	if len(r.SigningKey) != ed25519.PublicKeySize {
		return ErrBadReport
	}
	if !ed25519.Verify(ed25519.PublicKey(r.SigningKey),
		reportBody(r.Measurement, r.ExchangeKey), r.Signature) {
		return ErrBadReport
	}
	expected := measurement()
	if len(r.Measurement) != len(expected) {
		return ErrBadMeasure
	}
	for i, b := range expected {
		if r.Measurement[i] != b {
			return ErrBadMeasure
		}
	}
	return nil
}

// Submission is a client's sealed class-distribution upload.
type Submission struct {
	ClientID  int    `json:"clientId"`
	ClientKey []byte `json:"clientKey"` // ephemeral X25519 public key
	Nonce     []byte `json:"nonce"`
	Ciphertxt []byte `json:"ciphertext"`
}

type payload struct {
	ClientID int   `json:"clientId"`
	Counts   []int `json:"counts"`
}

// Seal encrypts a client's per-class label counts for the enclave whose
// attestation report was verified by the caller. It uses an ephemeral
// X25519 key exchange and AES-256-GCM.
func Seal(r Report, clientID int, counts []int, rand io.Reader) (Submission, error) {
	if err := VerifyReport(r); err != nil {
		return Submission{}, err
	}
	eph, err := ecdh.X25519().GenerateKey(rand)
	if err != nil {
		return Submission{}, fmt.Errorf("ephemeral key: %w", err)
	}
	remote, err := ecdh.X25519().NewPublicKey(r.ExchangeKey)
	if err != nil {
		return Submission{}, fmt.Errorf("enclave exchange key: %w", err)
	}
	secret, err := eph.ECDH(remote)
	if err != nil {
		return Submission{}, fmt.Errorf("ecdh: %w", err)
	}
	gcm, err := newGCM(secret)
	if err != nil {
		return Submission{}, err
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := io.ReadFull(rand, nonce); err != nil {
		return Submission{}, fmt.Errorf("nonce: %w", err)
	}
	plain, err := json.Marshal(payload{ClientID: clientID, Counts: counts})
	if err != nil {
		return Submission{}, fmt.Errorf("encode payload: %w", err)
	}
	aad := aadFor(clientID)
	return Submission{
		ClientID:  clientID,
		ClientKey: eph.PublicKey().Bytes(),
		Nonce:     nonce,
		Ciphertxt: gcm.Seal(nil, nonce, plain, aad),
	}, nil
}

func newGCM(secret []byte) (cipher.AEAD, error) {
	key := sha256.Sum256(secret)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("aes: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("gcm: %w", err)
	}
	return gcm, nil
}

func aadFor(clientID int) []byte {
	aad := make([]byte, 8)
	binary.LittleEndian.PutUint64(aad, uint64(clientID))
	return aad
}

// Submit decrypts a sealed submission inside the enclave and stores the
// class counts in sealed state. Submitting twice for the same client fails.
func (e *Enclave) Submit(sub Submission) error {
	clientPub, err := ecdh.X25519().NewPublicKey(sub.ClientKey)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadCiphertext, err)
	}
	secret, err := e.kemKey.ECDH(clientPub)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadCiphertext, err)
	}
	gcm, err := newGCM(secret)
	if err != nil {
		return err
	}
	plain, err := gcm.Open(nil, sub.Nonce, sub.Ciphertxt, aadFor(sub.ClientID))
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadCiphertext, err)
	}
	var p payload
	if err := json.Unmarshal(plain, &p); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCiphertext, err)
	}
	if p.ClientID != sub.ClientID {
		return fmt.Errorf("%w: inner client id %d, outer %d", ErrBadCiphertext, p.ClientID, sub.ClientID)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.submissions[p.ClientID]; ok {
		return fmt.Errorf("%w: client %d", ErrDuplicate, p.ClientID)
	}
	e.submissions[p.ClientID] = p.Counts
	return nil
}

// SimilarityMatrix computes the pairwise EMD matrix over the clients with
// IDs 0..n-1 inside the enclave. Only this aggregate leaves the enclave.
// Clients that did not submit are treated as having uniform distributions.
func (e *Enclave) SimilarityMatrix(n int) (similarity.Matrix, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.submissions) == 0 {
		return nil, ErrNoSubmissions
	}
	classes := 0
	for _, counts := range e.submissions {
		classes = len(counts)
		break
	}
	dists := make([][]int, n)
	for i := 0; i < n; i++ {
		if counts, ok := e.submissions[i]; ok {
			if len(counts) != classes {
				return nil, fmt.Errorf("enclave: client %d submitted %d classes, want %d",
					i, len(counts), classes)
			}
			dists[i] = counts
			continue
		}
		// Missing submission: uniform prior (zero counts normalize to it).
		dists[i] = make([]int, classes)
	}
	return similarity.NewMatrix(dists)
}
