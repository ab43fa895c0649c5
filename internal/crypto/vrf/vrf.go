// Package vrf implements an RSA-FDH verifiable random function in the style
// of RFC 9381: the proof is a deterministic RSA signature over the input,
// and the VRF output is a hash of the proof. ammBoost's committee election
// uses VRF outputs for cryptographic sortition with publicly verifiable
// election proofs.
package vrf

import (
	"crypto"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
)

// Proof sizes depend on the RSA modulus; output is always 32 bytes.
const OutputSize = 32

// ErrInvalidProof indicates proof verification failed.
var ErrInvalidProof = errors.New("vrf: invalid proof")

// PrivateKey is a VRF signing key.
type PrivateKey struct {
	rsa *rsa.PrivateKey
}

// PublicKey is a VRF verification key.
type PublicKey struct {
	rsa *rsa.PublicKey
}

// GenerateKey creates a VRF keypair. bits of 1024 is plenty for simulation;
// production deployments would use 2048+ or an elliptic-curve VRF.
func GenerateKey(random io.Reader, bits int) (*PrivateKey, *PublicKey, error) {
	if random == nil {
		random = rand.Reader
	}
	key, err := rsa.GenerateKey(random, bits)
	if err != nil {
		return nil, nil, fmt.Errorf("vrf: keygen: %w", err)
	}
	return &PrivateKey{rsa: key}, &PublicKey{rsa: &key.PublicKey}, nil
}

// Evaluate computes the VRF output and proof for input. The proof is a
// deterministic RSA PKCS#1 v1.5 signature (full-domain-hash style), and the
// output is SHA-256 of the proof, so outputs are unique per (key, input).
func (sk *PrivateKey) Evaluate(input []byte) (output [OutputSize]byte, proof []byte, err error) {
	digest := sha256.Sum256(input)
	proof, err = rsa.SignPKCS1v15(nil, sk.rsa, crypto.SHA256, digest[:])
	if err != nil {
		return output, nil, fmt.Errorf("vrf: sign: %w", err)
	}
	output = sha256.Sum256(proof)
	return output, proof, nil
}

// Verify checks that proof is valid for input under pk and returns the
// corresponding VRF output.
func (pk *PublicKey) Verify(input, proof []byte) ([OutputSize]byte, error) {
	var output [OutputSize]byte
	digest := sha256.Sum256(input)
	if err := rsa.VerifyPKCS1v15(pk.rsa, crypto.SHA256, digest[:], proof); err != nil {
		return output, ErrInvalidProof
	}
	return sha256.Sum256(proof), nil
}

// Bytes serializes the public key modulus (exponent is fixed at 65537).
func (pk *PublicKey) Bytes() []byte {
	return pk.rsa.N.Bytes()
}
