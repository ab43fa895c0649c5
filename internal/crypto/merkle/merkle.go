// Package merkle implements binary Merkle trees over SHA-256 with inclusion
// proofs. Meta-blocks and summary-blocks commit to their transaction sets
// through a Merkle root, which is what makes pruning safe: a pruned
// transaction can still be proven against the permanent summary-block.
package merkle

import (
	"bytes"
	"crypto/sha256"
	"errors"
)

// ErrProofInvalid indicates a proof failed verification.
var ErrProofInvalid = errors.New("merkle: invalid proof")

// leafPrefix, and the 0x01 hashNode writes, separate leaf hashes from
// node hashes, preventing leaf/node second-preimage splices.
var leafPrefix = []byte{0x00}

// HashLeaf hashes a leaf value.
func HashLeaf(data []byte) [32]byte {
	h := sha256.New()
	h.Write(leafPrefix)
	h.Write(data)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// HashLeaf32 hashes a fixed-width 32-byte leaf value. It is bit-identical
// to HashLeaf(v[:]) but stays entirely on the stack.
func HashLeaf32(v [32]byte) [32]byte {
	var buf [33]byte
	copy(buf[1:], v[:]) // buf[0] stays 0x00 = leaf prefix
	return sha256.Sum256(buf[:])
}

func hashNode(l, r [32]byte) [32]byte {
	var buf [65]byte
	buf[0] = 0x01 // node prefix
	copy(buf[1:33], l[:])
	copy(buf[33:], r[:])
	return sha256.Sum256(buf[:])
}

// Tree is an immutable Merkle tree.
type Tree struct {
	levels [][][32]byte // levels[0] = leaves, last level = [root]
}

// New builds a tree over the given leaf values. An empty input yields a
// tree whose root is the hash of an empty leaf, so every block has a
// well-defined commitment.
func New(leaves [][]byte) *Tree {
	if len(leaves) == 0 {
		leaves = [][]byte{nil}
	}
	level := make([][32]byte, len(leaves))
	for i, l := range leaves {
		level[i] = HashLeaf(l)
	}
	t := &Tree{levels: [][][32]byte{level}}
	for len(level) > 1 {
		next := make([][32]byte, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, hashNode(level[i], level[i+1]))
			} else {
				// Odd node is promoted paired with itself.
				next = append(next, hashNode(level[i], level[i]))
			}
		}
		t.levels = append(t.levels, next)
		level = next
	}
	return t
}

// Root returns the tree root.
func (t *Tree) Root() [32]byte {
	top := t.levels[len(t.levels)-1]
	return top[0]
}

// ProofStep is one sibling on the path from a leaf to the root.
type ProofStep struct {
	Hash  [32]byte
	Right bool // sibling is the right child
}

// Prove returns the inclusion proof for leaf index i.
func (t *Tree) Prove(i int) ([]ProofStep, error) {
	if i < 0 || i >= len(t.levels[0]) {
		return nil, errors.New("merkle: leaf index out of range")
	}
	var proof []ProofStep
	idx := i
	for l := 0; l < len(t.levels)-1; l++ {
		level := t.levels[l]
		sib := idx ^ 1
		if sib >= len(level) {
			sib = idx // odd promotion pairs with itself
		}
		proof = append(proof, ProofStep{Hash: level[sib], Right: sib > idx || sib == idx})
		idx /= 2
	}
	return proof, nil
}

// foldLevel reduces one level of node hashes in place and returns the
// shortened slice (odd nodes are promoted paired with themselves, matching
// New's construction).
func foldLevel(level [][32]byte) [][32]byte {
	n := 0
	for i := 0; i < len(level); i += 2 {
		if i+1 < len(level) {
			level[n] = hashNode(level[i], level[i+1])
		} else {
			level[n] = hashNode(level[i], level[i])
		}
		n++
	}
	return level[:n]
}

// New32 returns the root of a tree over fixed-width 32-byte leaf values,
// bit-identical to New(leaves).Root() with each value passed as leaf data,
// but with a single scratch-slice allocation and no per-leaf allocations.
// It is the fast path for folding N pool state roots into an epoch
// summary root.
func New32(leaves [][32]byte) [32]byte {
	if len(leaves) == 0 {
		return HashLeaf(nil)
	}
	level := make([][32]byte, len(leaves))
	for i, l := range leaves {
		level[i] = HashLeaf32(l)
	}
	for len(level) > 1 {
		level = foldLevel(level)
	}
	return level[0]
}

// RootFromLeafHashes folds already-hashed leaves into a root, using hs as
// scratch (its contents are destroyed). It produces the same root as
// building a Tree whose level 0 equals hs.
func RootFromLeafHashes(hs [][32]byte) [32]byte {
	if len(hs) == 0 {
		return HashLeaf(nil)
	}
	for len(hs) > 1 {
		hs = foldLevel(hs)
	}
	return hs[0]
}

// Verify checks that data is a leaf under root via proof.
func Verify(root [32]byte, data []byte, proof []ProofStep) error {
	h := HashLeaf(data)
	for _, step := range proof {
		if step.Right {
			h = hashNode(h, step.Hash)
		} else {
			h = hashNode(step.Hash, h)
		}
	}
	if !bytes.Equal(h[:], root[:]) {
		return ErrProofInvalid
	}
	return nil
}

// PathLen is the sibling-path length of every leaf in a tree over n
// leaves: ⌈log₂ n⌉. An odd node pairs with itself, so every leaf sits at
// the same depth and its index alone fixes the path's shape.
func PathLen(n int) int {
	l := 0
	for w := 1; w < n; w *= 2 {
		l++
	}
	return l
}

// FoldPath folds a leaf hash up its sibling path to the root it implies.
// The directions come from the leaf index i, never from the path: at
// each level an even index has its sibling on the right. The caller
// checks len(path) against PathLen for the tree's leaf count.
func FoldPath(leafHash [32]byte, i int, path [][32]byte) [32]byte {
	h := leafHash
	for _, sib := range path {
		if i%2 == 0 {
			h = hashNode(h, sib)
		} else {
			h = hashNode(sib, h)
		}
		i /= 2
	}
	return h
}
