package vrf

import (
	"math/rand"
	"testing"
)

// testRand gives deterministic keygen for tests.
func testRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestEvaluateVerifyRoundTrip(t *testing.T) {
	sk, pk, err := GenerateKey(testRand(1), 1024)
	if err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	input := []byte("epoch-7-seed")
	out, proof, err := sk.Evaluate(input)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	got, err := pk.Verify(input, proof)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if got != out {
		t.Error("verified output differs from evaluated output")
	}
}

func TestDeterministicOutput(t *testing.T) {
	sk, _, err := GenerateKey(testRand(2), 1024)
	if err != nil {
		t.Fatal(err)
	}
	o1, p1, _ := sk.Evaluate([]byte("seed"))
	o2, p2, _ := sk.Evaluate([]byte("seed"))
	if o1 != o2 || string(p1) != string(p2) {
		t.Error("VRF must be deterministic per (key, input)")
	}
}

func TestDifferentInputsDifferentOutputs(t *testing.T) {
	sk, _, err := GenerateKey(testRand(3), 1024)
	if err != nil {
		t.Fatal(err)
	}
	o1, _, _ := sk.Evaluate([]byte("seed-1"))
	o2, _, _ := sk.Evaluate([]byte("seed-2"))
	if o1 == o2 {
		t.Error("distinct inputs should give distinct outputs")
	}
}

func TestDifferentKeysDifferentOutputs(t *testing.T) {
	sk1, _, _ := GenerateKey(testRand(4), 1024)
	sk2, _, _ := GenerateKey(testRand(5), 1024)
	o1, _, _ := sk1.Evaluate([]byte("seed"))
	o2, _, _ := sk2.Evaluate([]byte("seed"))
	if o1 == o2 {
		t.Error("distinct keys should give distinct outputs")
	}
}

func TestVerifyRejectsWrongInput(t *testing.T) {
	sk, pk, _ := GenerateKey(testRand(6), 1024)
	_, proof, _ := sk.Evaluate([]byte("seed"))
	if _, err := pk.Verify([]byte("other"), proof); err != ErrInvalidProof {
		t.Errorf("want ErrInvalidProof, got %v", err)
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	sk, _, _ := GenerateKey(testRand(7), 1024)
	_, pk2, _ := GenerateKey(testRand(8), 1024)
	_, proof, _ := sk.Evaluate([]byte("seed"))
	if _, err := pk2.Verify([]byte("seed"), proof); err != ErrInvalidProof {
		t.Errorf("want ErrInvalidProof, got %v", err)
	}
}

func TestVerifyRejectsTamperedProof(t *testing.T) {
	sk, pk, _ := GenerateKey(testRand(9), 1024)
	_, proof, _ := sk.Evaluate([]byte("seed"))
	proof[0] ^= 0x01
	if _, err := pk.Verify([]byte("seed"), proof); err != ErrInvalidProof {
		t.Errorf("want ErrInvalidProof, got %v", err)
	}
}

func BenchmarkEvaluate(b *testing.B) {
	sk, _, err := GenerateKey(testRand(11), 1024)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sk.Evaluate([]byte("seed")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerify(b *testing.B) {
	sk, pk, _ := GenerateKey(testRand(12), 1024)
	_, proof, _ := sk.Evaluate([]byte("seed"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pk.Verify([]byte("seed"), proof); err != nil {
			b.Fatal(err)
		}
	}
}
