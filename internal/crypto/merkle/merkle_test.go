package merkle

import (
	"fmt"
	"math/rand"
	"testing"
)

func leaves(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("leaf-%d", i))
	}
	return out
}

func TestEmptyTreeHasRoot(t *testing.T) {
	a := New(nil)
	b := New([][]byte{})
	if a.Root() != b.Root() {
		t.Error("empty trees should have identical roots")
	}
	if n := len(a.levels[0]); n != 1 {
		t.Errorf("empty tree leaves = %d", n)
	}
}

func TestProveVerifyAllSizes(t *testing.T) {
	for n := 1; n <= 33; n++ {
		ls := leaves(n)
		tree := New(ls)
		for i := 0; i < n; i++ {
			proof, err := tree.Prove(i)
			if err != nil {
				t.Fatalf("n=%d Prove(%d): %v", n, i, err)
			}
			if err := Verify(tree.Root(), ls[i], proof); err != nil {
				t.Fatalf("n=%d Verify(%d): %v", n, i, err)
			}
		}
	}
}

func TestVerifyRejectsWrongLeaf(t *testing.T) {
	ls := leaves(10)
	tree := New(ls)
	proof, _ := tree.Prove(3)
	if err := Verify(tree.Root(), []byte("not-a-leaf"), proof); err != ErrProofInvalid {
		t.Errorf("wrong leaf should fail: %v", err)
	}
	// Proof for index 3 must not verify leaf 4.
	if err := Verify(tree.Root(), ls[4], proof); err != ErrProofInvalid {
		t.Errorf("mismatched proof should fail: %v", err)
	}
}

func TestVerifyRejectsTamperedProof(t *testing.T) {
	ls := leaves(16)
	tree := New(ls)
	proof, _ := tree.Prove(7)
	proof[1].Hash[0] ^= 0xff
	if err := Verify(tree.Root(), ls[7], proof); err != ErrProofInvalid {
		t.Errorf("tampered proof should fail: %v", err)
	}
}

func TestRootChangesWithContent(t *testing.T) {
	a := New([][]byte{[]byte("x"), []byte("y")})
	b := New([][]byte{[]byte("x"), []byte("z")})
	if a.Root() == b.Root() {
		t.Error("different content must give different roots")
	}
}

func TestLeafNodeDomainSeparation(t *testing.T) {
	// A tree of one leaf equal to the concatenation trick must not collide
	// with a two-leaf tree (leaf/node prefixes differ).
	two := New([][]byte{[]byte("a"), []byte("b")})
	la, lb := HashLeaf([]byte("a")), HashLeaf([]byte("b"))
	splice := append(la[:], lb[:]...)
	one := New([][]byte{splice})
	if one.Root() == two.Root() {
		t.Error("leaf/node domain separation failed")
	}
}

func TestProveOutOfRange(t *testing.T) {
	tree := New(leaves(4))
	if _, err := tree.Prove(-1); err == nil {
		t.Error("negative index should fail")
	}
	if _, err := tree.Prove(4); err == nil {
		t.Error("out-of-range index should fail")
	}
}

func TestDeterministicRoot(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	ls := make([][]byte, 100)
	for i := range ls {
		ls[i] = make([]byte, 32)
		r.Read(ls[i])
	}
	if New(ls).Root() != New(ls).Root() {
		t.Error("tree construction must be deterministic")
	}
}

// leafHashes32 builds n deterministic 32-byte leaf values.
func leafValues32(n int, seed int64) [][32]byte {
	r := rand.New(rand.NewSource(seed))
	out := make([][32]byte, n)
	for i := range out {
		r.Read(out[i][:])
	}
	return out
}

func TestHashLeaf32MatchesHashLeaf(t *testing.T) {
	for _, v := range leafValues32(10, 7) {
		if HashLeaf32(v) != HashLeaf(v[:]) {
			t.Fatal("HashLeaf32 diverged from HashLeaf")
		}
	}
}

// TestNew32MatchesNew pins the fixed-width fast path to the generic tree
// for every small size (odd-promotion edge cases included).
func TestNew32MatchesNew(t *testing.T) {
	for n := 0; n <= 33; n++ {
		vs := leafValues32(n, int64(n)+1)
		generic := make([][]byte, n)
		for i := range vs {
			generic[i] = vs[i][:]
		}
		if New32(vs) != New(generic).Root() {
			t.Fatalf("n=%d: New32 diverged from New().Root()", n)
		}
	}
}

func TestRootFromLeafHashesMatchesTree(t *testing.T) {
	for n := 1; n <= 17; n++ {
		ls := leaves(n)
		hs := make([][32]byte, n)
		for i, l := range ls {
			hs[i] = HashLeaf(l)
		}
		if RootFromLeafHashes(hs) != New(ls).Root() {
			t.Fatalf("n=%d: RootFromLeafHashes diverged", n)
		}
	}
	if RootFromLeafHashes(nil) != New(nil).Root() {
		t.Fatal("empty RootFromLeafHashes diverged from empty tree")
	}
}

func BenchmarkNew32Fold256(b *testing.B) {
	vs := leafValues32(256, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = New32(vs)
	}
}

func BenchmarkBuild1000(b *testing.B) {
	ls := leaves(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = New(ls).Root()
	}
}

// TestFoldPathMatchesProve: for every tree size up to 33, each leaf's
// Prove hashes, folded with directions taken from the index alone,
// reproduce the root, and the path is PathLen long; the same path under
// any other index of the tree does not.
func TestFoldPathMatchesProve(t *testing.T) {
	for n := 1; n <= 33; n++ {
		ls := leaves(n)
		tree := New(ls)
		for i := 0; i < n; i++ {
			proof, err := tree.Prove(i)
			if err != nil {
				t.Fatal(err)
			}
			path := make([][32]byte, len(proof))
			for k, step := range proof {
				path[k] = step.Hash
			}
			if len(path) != PathLen(n) {
				t.Fatalf("n=%d leaf %d: path of %d hashes, PathLen %d", n, i, len(path), PathLen(n))
			}
			leaf := HashLeaf(ls[i])
			if got := FoldPath(leaf, i, path); got != tree.Root() {
				t.Fatalf("n=%d leaf %d: folded root %x, tree root %x", n, i, got[:4], tree.Root())
			}
			for j := 0; j < n; j++ {
				if j != i && FoldPath(leaf, j, path) == tree.Root() {
					t.Fatalf("n=%d: leaf %d's path also folds to the root at index %d", n, i, j)
				}
			}
		}
	}
}
