package amm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ammboost/internal/binenc"
)

// ErrBadPoolEncoding rejects a pool snapshot that does not decode cleanly.
var ErrBadPoolEncoding = errors.New("amm: malformed pool encoding")

// poolCodecVersion guards the binary layout below; bump on any change.
const poolCodecVersion = 1

// EncodedPoolLen is the exact length AppendPool adds for p.
func EncodedPoolLen(p *Pool) int {
	n := 1 + 4 + len(p.Token0) + 4 + len(p.Token1) + 4 + 4 + 32 + 4 + 5*32 +
		4 + len(p.tickList)*(4+5*32) + 4
	for _, id := range p.posList {
		pos := p.positions[id]
		n += 4 + len(pos.ID) + 4 + len(pos.Owner) + 4 + 4 + 5*32
	}
	return n
}

// AppendPool appends the deterministic binary encoding of the pool's full
// state to buf and returns the extended slice. Ticks and positions are
// written in their canonical sorted order, so two pools with identical
// state always encode to identical bytes — the property the durable store
// relies on when it pins recovered state roots against uninterrupted
// runs.
func AppendPool(buf []byte, p *Pool) []byte {
	buf = append(buf, poolCodecVersion)
	buf = binenc.AppendString(buf, p.Token0)
	buf = binenc.AppendString(buf, p.Token1)
	buf = binary.BigEndian.AppendUint32(buf, p.FeePips)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.TickSpacing))
	buf = binenc.AppendU256(buf, p.SqrtPriceX96)
	buf = binary.BigEndian.AppendUint32(buf, uint32(p.Tick))
	buf = binenc.AppendU256(buf, p.Liquidity)
	buf = binenc.AppendU256(buf, p.FeeGrowthGlobal0X128)
	buf = binenc.AppendU256(buf, p.FeeGrowthGlobal1X128)
	buf = binenc.AppendU256(buf, p.Reserve0)
	buf = binenc.AppendU256(buf, p.Reserve1)

	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.tickList)))
	for _, tick := range p.tickList {
		ti := p.ticks[tick]
		buf = binary.BigEndian.AppendUint32(buf, uint32(tick))
		buf = binenc.AppendU256(buf, ti.LiquidityGross)
		buf = binenc.AppendU256(buf, ti.LiquidityNetAdd)
		buf = binenc.AppendU256(buf, ti.LiquidityNetSub)
		buf = binenc.AppendU256(buf, ti.FeeGrowthOutside0X128)
		buf = binenc.AppendU256(buf, ti.FeeGrowthOutside1X128)
	}

	buf = binary.BigEndian.AppendUint32(buf, uint32(len(p.posList)))
	for _, id := range p.posList {
		pos := p.positions[id]
		buf = binenc.AppendString(buf, pos.ID)
		buf = binenc.AppendString(buf, pos.Owner)
		buf = binary.BigEndian.AppendUint32(buf, uint32(pos.TickLower))
		buf = binary.BigEndian.AppendUint32(buf, uint32(pos.TickUpper))
		buf = binenc.AppendU256(buf, pos.Liquidity)
		buf = binenc.AppendU256(buf, pos.FeeGrowthInside0LastX128)
		buf = binenc.AppendU256(buf, pos.FeeGrowthInside1LastX128)
		buf = binenc.AppendU256(buf, pos.TokensOwed0)
		buf = binenc.AppendU256(buf, pos.TokensOwed1)
	}
	return buf
}

// DecodePool decodes a pool snapshot produced by AppendPool, returning
// the pool, the number of bytes consumed, and any framing error. The
// decoded pool is fully indexed: sorted tick and position lists are
// rebuilt from the canonical encoding order.
// Every tick, the fee and the price must lie in the ranges NewPool and
// Mint enforce, so a swap on the decoded pool cannot panic on them or
// price its input with a wrapped fee.
func DecodePool(buf []byte) (*Pool, int, error) {
	d := binenc.NewCursor(buf)
	if v := d.U8(); d.Err() == nil && v != poolCodecVersion {
		return nil, 0, fmt.Errorf("%w: codec version %d, want %d", ErrBadPoolEncoding, v, poolCodecVersion)
	}
	p := &Pool{
		ticks:     make(map[int32]*TickInfo),
		positions: make(map[string]*Position),
	}
	p.Token0 = d.Str()
	p.Token1 = d.Str()
	p.FeePips = d.U32()
	p.TickSpacing = int32(d.U32())
	p.SqrtPriceX96 = d.U256()
	p.Tick = int32(d.U32())
	p.Liquidity = d.U256()
	p.FeeGrowthGlobal0X128 = d.U256()
	p.FeeGrowthGlobal1X128 = d.U256()
	p.Reserve0 = d.U256()
	p.Reserve1 = d.U256()
	if p.TickSpacing <= 0 || p.FeePips >= feeDenominator || !tickInRange(p.Tick) ||
		p.SqrtPriceX96.Lt(MinSqrtRatio) || !p.SqrtPriceX96.Lt(MaxSqrtRatio) {
		d.Fail("pool header out of range")
	}

	nTicks := int(d.U32())
	if nTicks > d.Remaining()/25 {
		d.Fail("tick count %d exceeds buffer", nTicks)
	}
	if d.Err() != nil {
		nTicks = 0
	}
	p.tickList = make([]int32, 0, nTicks)
	for i := 0; i < nTicks && d.Err() == nil; i++ {
		tick := int32(d.U32())
		ti := &TickInfo{
			LiquidityGross:        d.U256(),
			LiquidityNetAdd:       d.U256(),
			LiquidityNetSub:       d.U256(),
			FeeGrowthOutside0X128: d.U256(),
			FeeGrowthOutside1X128: d.U256(),
		}
		if len(p.tickList) > 0 && tick <= p.tickList[len(p.tickList)-1] {
			d.Fail("ticks out of order")
			break
		}
		if !tickInRange(tick) {
			d.Fail("tick %d out of range", tick)
			break
		}
		p.ticks[tick] = ti
		p.tickList = append(p.tickList, tick)
	}

	nPos := int(d.U32())
	if nPos > d.Remaining()/25 {
		d.Fail("position count %d exceeds buffer", nPos)
	}
	if d.Err() != nil {
		nPos = 0
	}
	p.posList = make([]string, 0, nPos)
	for i := 0; i < nPos && d.Err() == nil; i++ {
		pos := &Position{}
		pos.ID = d.Str()
		pos.Owner = d.Str()
		pos.TickLower = int32(d.U32())
		pos.TickUpper = int32(d.U32())
		pos.Liquidity = d.U256()
		pos.FeeGrowthInside0LastX128 = d.U256()
		pos.FeeGrowthInside1LastX128 = d.U256()
		pos.TokensOwed0 = d.U256()
		pos.TokensOwed1 = d.U256()
		if len(p.posList) > 0 && pos.ID <= p.posList[len(p.posList)-1] {
			d.Fail("positions out of order")
			break
		}
		if !tickInRange(pos.TickLower) || !tickInRange(pos.TickUpper) || pos.TickLower >= pos.TickUpper {
			d.Fail("position %q tick range out of bounds", pos.ID)
			break
		}
		p.positions[pos.ID] = pos
		p.posList = append(p.posList, pos.ID)
	}
	if err := d.Err(); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadPoolEncoding, err)
	}
	return p, d.Offset(), nil
}

// tickInRange reports whether tick lies in [MinTick, MaxTick].
func tickInRange(tick int32) bool {
	return tick >= MinTick && tick <= MaxTick
}
