package engine

import (
	"encoding/binary"

	"ammboost/internal/amm"
	"ammboost/internal/crypto/merkle"
	"ammboost/internal/u256"
)

// A pool's state commitment is a Merkle tree over fixed-layout chunks:
// leaf 0 is the header chunk (pool identity, price, in-range liquidity,
// global fee accumulators, reserves), followed by one leaf per
// initialized tick in ascending tick order, then one leaf per position in
// ascending position-ID order. Each chunk carries a one-byte kind tag and
// length-prefixed strings so no two distinct states serialize
// identically.

func appendU32(b []byte, v uint32) []byte {
	return binary.BigEndian.AppendUint32(b, v)
}

func appendI32(b []byte, v int32) []byte { return appendU32(b, uint32(v)) }

func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendU256(b []byte, v u256.Int) []byte {
	bs := v.Bytes32()
	return append(b, bs[:]...)
}

// appendHeaderChunk serializes the pool-level fields into b.
func appendHeaderChunk(b []byte, poolID string, p *amm.Pool) []byte {
	b = append(b, 'H')
	b = appendStr(b, poolID)
	b = appendStr(b, p.Token0)
	b = appendStr(b, p.Token1)
	b = appendU32(b, p.FeePips)
	b = appendI32(b, p.TickSpacing)
	b = appendU256(b, p.SqrtPriceX96)
	b = appendI32(b, p.Tick)
	b = appendU256(b, p.Liquidity)
	b = appendU256(b, p.FeeGrowthGlobal0X128)
	b = appendU256(b, p.FeeGrowthGlobal1X128)
	b = appendU256(b, p.Reserve0)
	b = appendU256(b, p.Reserve1)
	return b
}

// appendTickChunk serializes one initialized tick's accounting into b.
func appendTickChunk(b []byte, tick int32, ti *amm.TickInfo) []byte {
	b = append(b, 'T')
	b = appendI32(b, tick)
	b = appendU256(b, ti.LiquidityGross)
	b = appendU256(b, ti.LiquidityNetAdd)
	b = appendU256(b, ti.LiquidityNetSub)
	b = appendU256(b, ti.FeeGrowthOutside0X128)
	b = appendU256(b, ti.FeeGrowthOutside1X128)
	return b
}

// appendPositionChunk serializes one position into b.
func appendPositionChunk(b []byte, pos *amm.Position) []byte {
	b = append(b, 'P')
	b = appendStr(b, pos.ID)
	b = appendStr(b, pos.Owner)
	b = appendI32(b, pos.TickLower)
	b = appendI32(b, pos.TickUpper)
	b = appendU256(b, pos.Liquidity)
	b = appendU256(b, pos.FeeGrowthInside0LastX128)
	b = appendU256(b, pos.FeeGrowthInside1LastX128)
	b = appendU256(b, pos.TokensOwed0)
	b = appendU256(b, pos.TokensOwed1)
	return b
}

// StateRoot deterministically hashes a pool's full state from scratch:
// the header chunk, every initialized tick, and every position, folded
// into the chunked Merkle layout described above. Two pools that executed
// the same transaction sequence produce the same root regardless of map
// iteration order or which shard ran them.
func StateRoot(poolID string, p *amm.Pool) [32]byte {
	ticks := p.TickKeys()
	positions := p.PositionKeys()
	hashes := make([][32]byte, 0, 1+len(ticks)+len(positions))
	buf := make([]byte, 0, 512)

	buf = appendHeaderChunk(buf, poolID, p)
	hashes = append(hashes, merkle.HashLeaf(buf))
	for _, tick := range ticks {
		buf = appendTickChunk(buf[:0], tick, p.TickInfoAt(tick))
		hashes = append(hashes, merkle.HashLeaf(buf))
	}
	for _, id := range positions {
		buf = appendPositionChunk(buf[:0], p.Position(id))
		hashes = append(hashes, merkle.HashLeaf(buf))
	}
	return merkle.RootFromLeafHashes(hashes)
}

// rootCache is one pool's last computed state root. A pool's state
// changes only through its epoch executor or RestorePools, which drops
// the cache, so a pool the epoch did not touch answers from the cache and
// a touched pool is re-hashed whole.
type rootCache struct {
	root  [32]byte
	valid bool
}

// get returns the pool's state root: the cached one unless the pool
// changed since it was stored or none is stored, else StateRoot's, which
// it stores.
func (c *rootCache) get(poolID string, p *amm.Pool, changed bool) [32]byte {
	if changed || !c.valid {
		c.root, c.valid = StateRoot(poolID, p), true
	}
	return c.root
}

// FoldRoots builds the Merkle tree over per-pool roots in the given order
// and returns its root. The engine always passes roots in canonical pool
// order, making the fold independent of the shard layout. The fold uses
// merkle's fixed-width path: no per-root re-slicing through [][]byte and
// a single scratch allocation for any N.
func FoldRoots(roots [][32]byte) [32]byte {
	return merkle.New32(roots)
}
