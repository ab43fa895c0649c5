package amm

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"ammboost/internal/u256"
)

// Pool-level errors.
var (
	ErrPriceLimit       = errors.New("amm: price limit out of bounds")
	ErrZeroAmount       = errors.New("amm: zero amount")
	ErrPositionNotFound = errors.New("amm: position not found")
	ErrNotPositionOwner = errors.New("amm: caller does not own position")
	ErrInsufficientLiq  = errors.New("amm: position has insufficient liquidity")
	ErrTickNotSpaced    = errors.New("amm: tick not aligned to spacing")
)

// TickInfo tracks liquidity referencing a tick and the fee growth observed
// "outside" it, per Uniswap V3's accounting.
type TickInfo struct {
	// LiquidityGross is total liquidity of positions using this tick as a
	// lower or upper bound; the tick is deinitialized when it reaches zero.
	LiquidityGross u256.Int
	// LiquidityNetAdd/Sub decompose the signed net liquidity change when
	// the tick is crossed left-to-right: net = Add - Sub.
	LiquidityNetAdd u256.Int
	LiquidityNetSub u256.Int
	// Fee growth on the other side of this tick relative to the current
	// tick (wrapping Q128 accumulators).
	FeeGrowthOutside0X128 u256.Int
	FeeGrowthOutside1X128 u256.Int
}

// Position is a concentrated-liquidity position identified by an opaque ID
// (ammBoost derives IDs from the mint transaction hash and the owner key).
type Position struct {
	ID        string
	Owner     string
	TickLower int32
	TickUpper int32
	Liquidity u256.Int
	// Fee growth inside the range as of the last position touch.
	FeeGrowthInside0LastX128 u256.Int
	FeeGrowthInside1LastX128 u256.Int
	// Uncollected amounts owed to the owner (fees + burned principal).
	TokensOwed0 u256.Int
	TokensOwed1 u256.Int
}

// Clone returns a deep copy of the position.
func (p *Position) Clone() *Position {
	c := *p
	return &c
}

// Pool is a two-token concentrated-liquidity pool. It is not safe for
// concurrent use; callers (contract runtime, sidechain executor) serialize
// access, matching per-pool sequential execution on a blockchain.
type Pool struct {
	Token0 string
	Token1 string
	// FeePips is the swap fee in hundredths of a bip (3000 = 0.30%).
	FeePips     uint32
	TickSpacing int32

	SqrtPriceX96 u256.Int
	Tick         int32
	Liquidity    u256.Int // liquidity in range at the current price

	FeeGrowthGlobal0X128 u256.Int
	FeeGrowthGlobal1X128 u256.Int

	ticks     map[int32]*TickInfo
	tickList  []int32 // sorted initialized ticks
	positions map[string]*Position
	posList   []string // sorted position IDs (incrementally maintained)
	// sharedTicks and sharedPositions record that a Clone shares the tick
	// or position collections above with another pool (see Clone).
	sharedTicks     bool
	sharedPositions bool

	// Reserves actually held by the pool (principal + accrued fees).
	Reserve0 u256.Int
	Reserve1 u256.Int
}

// NewPool creates a pool for (token0, token1) at the given initial sqrt
// price.
func NewPool(token0, token1 string, feePips uint32, tickSpacing int32, sqrtPriceX96 u256.Int) (*Pool, error) {
	if sqrtPriceX96.Lt(MinSqrtRatio) || !sqrtPriceX96.Lt(MaxSqrtRatio) {
		return nil, ErrPriceLimit
	}
	if tickSpacing <= 0 {
		return nil, fmt.Errorf("amm: tick spacing must be positive, got %d", tickSpacing)
	}
	if feePips >= feeDenominator {
		// At 100% ComputeSwapStep has no input left to price, and above
		// it feeDenominator - feePips wraps.
		return nil, fmt.Errorf("amm: fee must be below %d pips, got %d", feeDenominator, feePips)
	}
	return &Pool{
		Token0:       token0,
		Token1:       token1,
		FeePips:      feePips,
		TickSpacing:  tickSpacing,
		SqrtPriceX96: sqrtPriceX96,
		Tick:         TickAtSqrtRatio(sqrtPriceX96),
		ticks:        make(map[int32]*TickInfo),
		positions:    make(map[string]*Position),
	}, nil
}

// The deployment the paper evaluates: every pool is a Uniswap-V3 0.30%
// A/B pool with 60-tick spacing, opened at price 1.0 with one full-range
// position owned by GenesisOwner.
const (
	GenesisFeePips     = 3000
	GenesisTickSpacing = 60
	GenesisOwner       = "lp-genesis"
	// GenesisTickUpper is the widest tick aligned to GenesisTickSpacing;
	// the genesis position spans [-GenesisTickUpper, GenesisTickUpper].
	GenesisTickUpper = 887220
)

// GenesisLiquidity is the genesis position's liquidity (1e13).
var GenesisLiquidity = u256.FromUint64(10_000_000_000_000)

// NewGenesisPool opens a deployment pool and mints its full-range genesis
// position posID with the given liquidity.
func NewGenesisPool(posID string, liquidity u256.Int) (*Pool, MintResult, error) {
	p, err := NewPool("A", "B", GenesisFeePips, GenesisTickSpacing, u256.Q96)
	if err != nil {
		return nil, MintResult{}, err
	}
	res, err := p.Mint(posID, GenesisOwner, -GenesisTickUpper, GenesisTickUpper, liquidity)
	if err != nil {
		return nil, MintResult{}, fmt.Errorf("amm: genesis mint %s: %w", posID, err)
	}
	return p, res, nil
}

// Clone returns a copy-on-write snapshot of the pool. The sidechain
// snapshots pool state at epoch start and evolves the copy while the
// mainchain state stays frozen. The two pools share the tick collections
// (map and sorted list) and the position collections, and both are
// marked as sharing them: whichever pool writes a collection first
// copies it (ownTicks, ownPositions), so neither side's later writes
// reach the other. Clone therefore writes p, and a *TickInfo or
// *Position read from either pool is valid only until that pool's next
// write.
func (p *Pool) Clone() *Pool {
	p.sharedTicks, p.sharedPositions = true, true
	c := *p
	return &c
}

// ownTicks gives the pool its own copy of the tick collections if a
// Clone shares them; every tick write calls it first.
func (p *Pool) ownTicks() {
	if !p.sharedTicks {
		return
	}
	ticks := make(map[int32]*TickInfo, len(p.ticks))
	for t, ti := range p.ticks {
		tc := *ti
		ticks[t] = &tc
	}
	p.ticks = ticks
	p.tickList = slices.Clone(p.tickList)
	p.sharedTicks = false
}

// ownPositions is ownTicks for the position collections.
func (p *Pool) ownPositions() {
	if !p.sharedPositions {
		return
	}
	positions := make(map[string]*Position, len(p.positions))
	for id, pos := range p.positions {
		positions[id] = pos.Clone()
	}
	p.positions = positions
	p.posList = slices.Clone(p.posList)
	p.sharedPositions = false
}

// writePosition returns position id, or nil, for writing: the pool owns
// its position collections afterwards.
func (p *Pool) writePosition(id string) *Position {
	p.ownPositions()
	return p.positions[id]
}

// Position returns the position with the given ID, or nil. The pointer
// is valid only until the pool's next write (see Clone).
func (p *Pool) Position(id string) *Position {
	return p.positions[id]
}

// Positions returns all positions in unspecified order, valid until the
// pool's next write.
func (p *Pool) Positions() []*Position {
	out := make([]*Position, 0, len(p.positions))
	for _, pos := range p.positions {
		out = append(out, pos)
	}
	return out
}

// NumPositions returns the number of live positions.
func (p *Pool) NumPositions() int { return len(p.positions) }

// TickInfoAt returns tick state for an initialized tick, or nil, valid
// until the pool's next write.
func (p *Pool) TickInfoAt(tick int32) *TickInfo { return p.ticks[tick] }

// Ticks returns the initialized ticks in ascending order (the engine's
// state-root encoding walks them deterministically).
func (p *Pool) Ticks() []int32 {
	return append([]int32(nil), p.tickList...)
}

// TickKeys returns the pool's internal sorted tick list without copying.
// The slice must not be modified and is valid only until the next
// mutation; StateRoot uses it to avoid per-call allocation.
func (p *Pool) TickKeys() []int32 { return p.tickList }

// PositionKeys returns the pool's internal sorted position-ID list,
// maintained incrementally on create/delete so StateRoot never re-sorts.
// Same read-only contract as TickKeys.
func (p *Pool) PositionKeys() []string { return p.posList }

// insertPosition registers a position ID in the sorted index.
func (p *Pool) insertPosition(id string) {
	i := sort.SearchStrings(p.posList, id)
	if i < len(p.posList) && p.posList[i] == id {
		return
	}
	p.posList = append(p.posList, "")
	copy(p.posList[i+1:], p.posList[i:])
	p.posList[i] = id
}

func (p *Pool) removePosition(id string) {
	i := sort.SearchStrings(p.posList, id)
	if i < len(p.posList) && p.posList[i] == id {
		p.posList = append(p.posList[:i], p.posList[i+1:]...)
	}
}

func (p *Pool) checkTicks(lower, upper int32) error {
	if lower >= upper || lower < MinTick || upper > MaxTick {
		return ErrInvalidTickRange
	}
	if lower%p.TickSpacing != 0 || upper%p.TickSpacing != 0 {
		return ErrTickNotSpaced
	}
	return nil
}

// insertTick registers tick as initialized in the sorted list.
func (p *Pool) insertTick(tick int32) {
	i := sort.Search(len(p.tickList), func(i int) bool { return p.tickList[i] >= tick })
	if i < len(p.tickList) && p.tickList[i] == tick {
		return
	}
	p.tickList = append(p.tickList, 0)
	copy(p.tickList[i+1:], p.tickList[i:])
	p.tickList[i] = tick
}

func (p *Pool) removeTick(tick int32) {
	i := sort.Search(len(p.tickList), func(i int) bool { return p.tickList[i] >= tick })
	if i < len(p.tickList) && p.tickList[i] == tick {
		p.tickList = append(p.tickList[:i], p.tickList[i+1:]...)
	}
}

// nextInitializedTick finds the next initialized tick strictly below (when
// lte) or strictly above the given tick. The boolean reports whether one was
// found; otherwise the returned tick is the search bound (MinTick/MaxTick).
func (p *Pool) nextInitializedTick(tick int32, lte bool) (int32, bool) {
	if lte {
		// Largest initialized tick <= tick.
		i := sort.Search(len(p.tickList), func(i int) bool { return p.tickList[i] > tick })
		if i > 0 {
			return p.tickList[i-1], true
		}
		return MinTick, false
	}
	// Smallest initialized tick > tick.
	i := sort.Search(len(p.tickList), func(i int) bool { return p.tickList[i] > tick })
	if i < len(p.tickList) {
		return p.tickList[i], true
	}
	return MaxTick, false
}

// updateTick applies a liquidity delta at a tick boundary. upper indicates
// the tick is the position's upper bound. It reports whether the tick
// flipped between initialized and uninitialized; a tick a removal empties
// stays until the caller clears it (clearTick).
func (p *Pool) updateTick(tick int32, liquidityDelta u256.Int, addLiquidity, upper bool) (flipped bool, err error) {
	p.ownTicks()
	info := p.ticks[tick]
	wasInit := info != nil && !info.LiquidityGross.IsZero()
	if info == nil {
		info = &TickInfo{}
		p.ticks[tick] = info
	}
	if addLiquidity {
		info.LiquidityGross = u256.Add(info.LiquidityGross, liquidityDelta)
	} else {
		var under bool
		info.LiquidityGross, under = u256.SubUnderflow(info.LiquidityGross, liquidityDelta)
		if under {
			return false, ErrInsufficientLiq
		}
	}
	if !wasInit && addLiquidity {
		// Convention: assume all prior fee growth happened below the tick.
		if tick <= p.Tick {
			info.FeeGrowthOutside0X128 = p.FeeGrowthGlobal0X128
			info.FeeGrowthOutside1X128 = p.FeeGrowthGlobal1X128
		}
	}
	// Net change when crossing left-to-right: +L at lower, -L at upper.
	switch {
	case addLiquidity && !upper:
		info.LiquidityNetAdd = u256.Add(info.LiquidityNetAdd, liquidityDelta)
	case addLiquidity && upper:
		info.LiquidityNetSub = u256.Add(info.LiquidityNetSub, liquidityDelta)
	case !addLiquidity && !upper:
		info.LiquidityNetAdd = u256.Sub(info.LiquidityNetAdd, liquidityDelta)
	default:
		info.LiquidityNetSub = u256.Sub(info.LiquidityNetSub, liquidityDelta)
	}
	isInit := !info.LiquidityGross.IsZero()
	if isInit != wasInit {
		flipped = true
		if isInit {
			p.insertTick(tick)
		}
	}
	return flipped, nil
}

// clearTick deletes a tick a removal emptied. Burn calls it only after
// accruing the position's fees, which read the tick's outside growth.
func (p *Pool) clearTick(tick int32) {
	p.ownTicks()
	delete(p.ticks, tick)
	p.removeTick(tick)
}

// feeGrowthInside computes fee growth inside [lower, upper] using the
// wrapping Q128 convention.
func (p *Pool) feeGrowthInside(lower, upper int32) (fg0, fg1 u256.Int) {
	lowerInfo := p.ticks[lower]
	upperInfo := p.ticks[upper]
	var below0, below1, above0, above1 u256.Int
	if lowerInfo != nil {
		if p.Tick >= lower {
			below0, below1 = lowerInfo.FeeGrowthOutside0X128, lowerInfo.FeeGrowthOutside1X128
		} else {
			below0 = u256.Sub(p.FeeGrowthGlobal0X128, lowerInfo.FeeGrowthOutside0X128)
			below1 = u256.Sub(p.FeeGrowthGlobal1X128, lowerInfo.FeeGrowthOutside1X128)
		}
	}
	if upperInfo != nil {
		if p.Tick < upper {
			above0, above1 = upperInfo.FeeGrowthOutside0X128, upperInfo.FeeGrowthOutside1X128
		} else {
			above0 = u256.Sub(p.FeeGrowthGlobal0X128, upperInfo.FeeGrowthOutside0X128)
			above1 = u256.Sub(p.FeeGrowthGlobal1X128, upperInfo.FeeGrowthOutside1X128)
		}
	}
	fg0 = u256.Sub(u256.Sub(p.FeeGrowthGlobal0X128, below0), above0)
	fg1 = u256.Sub(u256.Sub(p.FeeGrowthGlobal1X128, below1), above1)
	return fg0, fg1
}

// FeeGrowthInside returns the wrapping Q128 fee growth accumulated inside
// [lower, upper]; callers snapshot it to detect positions whose fees moved.
func (p *Pool) FeeGrowthInside(lower, upper int32) (fg0, fg1 u256.Int) {
	return p.feeGrowthInside(lower, upper)
}

// updatePositionFees accrues pending fees into TokensOwed based on fee
// growth inside the range since the last touch.
func (p *Pool) updatePositionFees(pos *Position) {
	fg0, fg1 := p.feeGrowthInside(pos.TickLower, pos.TickUpper)
	if !pos.Liquidity.IsZero() {
		delta0 := u256.Sub(fg0, pos.FeeGrowthInside0LastX128)
		delta1 := u256.Sub(fg1, pos.FeeGrowthInside1LastX128)
		owed0, _ := u256.MulDiv(delta0, pos.Liquidity, u256.Q128)
		owed1, _ := u256.MulDiv(delta1, pos.Liquidity, u256.Q128)
		pos.TokensOwed0 = u256.Add(pos.TokensOwed0, owed0)
		pos.TokensOwed1 = u256.Add(pos.TokensOwed1, owed1)
	}
	pos.FeeGrowthInside0LastX128 = fg0
	pos.FeeGrowthInside1LastX128 = fg1
}

// MintResult reports the token amounts a mint pulled into the pool.
type MintResult struct {
	PositionID string
	Liquidity  u256.Int
	Amount0    u256.Int
	Amount1    u256.Int
}

// Mint adds liquidity to position posID owned by owner over
// [tickLower, tickUpper]. If the position exists, liquidity is added to it
// (owner and range must match); otherwise it is created. Returns the token
// amounts the pool takes in (rounded up, as on-chain).
func (p *Pool) Mint(posID, owner string, tickLower, tickUpper int32, liquidity u256.Int) (MintResult, error) {
	var res MintResult
	if err := p.checkTicks(tickLower, tickUpper); err != nil {
		return res, err
	}
	if liquidity.IsZero() {
		return res, ErrLiquidityZero
	}
	// Compute the funding amounts before touching any state: an amount
	// overflow must reject the mint with the pool untouched, or the
	// half-applied position would leak into the epoch's state root.
	sqrtA := SqrtRatioAtTick(tickLower)
	sqrtB := SqrtRatioAtTick(tickUpper)
	amount0, amount1, err := AmountsForLiquidity(p.SqrtPriceX96, sqrtA, sqrtB, liquidity, true)
	if err != nil {
		return res, err
	}
	if pos := p.positions[posID]; pos != nil {
		if pos.Owner != owner {
			return res, ErrNotPositionOwner
		}
		if pos.TickLower != tickLower || pos.TickUpper != tickUpper {
			return res, ErrInvalidTickRange
		}
	}
	pos := p.writePosition(posID)
	if pos == nil {
		pos = &Position{ID: posID, Owner: owner, TickLower: tickLower, TickUpper: tickUpper}
		p.positions[posID] = pos
		p.insertPosition(posID)
	}
	if _, err := p.updateTick(tickLower, liquidity, true, false); err != nil {
		return res, err
	}
	if _, err := p.updateTick(tickUpper, liquidity, true, true); err != nil {
		return res, err
	}
	p.updatePositionFees(pos)
	pos.Liquidity = u256.Add(pos.Liquidity, liquidity)
	if p.Tick >= tickLower && p.Tick < tickUpper {
		p.Liquidity = u256.Add(p.Liquidity, liquidity)
	}
	p.Reserve0 = u256.Add(p.Reserve0, amount0)
	p.Reserve1 = u256.Add(p.Reserve1, amount1)
	res = MintResult{PositionID: posID, Liquidity: liquidity, Amount0: amount0, Amount1: amount1}
	return res, nil
}

// BurnResult reports the principal a burn released into TokensOwed.
type BurnResult struct {
	Amount0 u256.Int
	Amount1 u256.Int
	// Deleted reports whether the position was removed entirely (no
	// liquidity and no owed tokens remain).
	Deleted bool
}

// Burn removes liquidity from a position; the released principal is added
// to TokensOwed for later collection, matching Uniswap's two-step burn+
// collect flow. A position with zero remaining liquidity and zero owed
// tokens is deleted.
func (p *Pool) Burn(posID, caller string, liquidity u256.Int) (BurnResult, error) {
	var res BurnResult
	pos := p.positions[posID]
	if pos == nil {
		return res, ErrPositionNotFound
	}
	if pos.Owner != caller {
		return res, ErrNotPositionOwner
	}
	if liquidity.Gt(pos.Liquidity) {
		return res, ErrInsufficientLiq
	}
	if liquidity.IsZero() {
		// A zero burn is a "poke": refresh fee accounting only.
		p.updatePositionFees(p.writePosition(posID))
		return res, nil
	}
	// As in Mint, resolve the released amounts before mutating: the only
	// error past this point (insufficient tick liquidity) is caught at
	// the first updateTick call, before any state change sticks.
	sqrtA := SqrtRatioAtTick(pos.TickLower)
	sqrtB := SqrtRatioAtTick(pos.TickUpper)
	amount0, amount1, err := AmountsForLiquidity(p.SqrtPriceX96, sqrtA, sqrtB, liquidity, false)
	if err != nil {
		return res, err
	}
	pos = p.writePosition(posID)
	flippedLower, err := p.updateTick(pos.TickLower, liquidity, false, false)
	if err != nil {
		return res, err
	}
	flippedUpper, err := p.updateTick(pos.TickUpper, liquidity, false, true)
	if err != nil {
		return res, err
	}
	// As in Uniswap V3, a tick the burn emptied is cleared only after the
	// fees accrue: fee growth inside read without its outside growth would
	// credit fees the range never earned.
	p.updatePositionFees(pos)
	if flippedLower {
		p.clearTick(pos.TickLower)
	}
	if flippedUpper {
		p.clearTick(pos.TickUpper)
	}
	pos.Liquidity = u256.Sub(pos.Liquidity, liquidity)
	if p.Tick >= pos.TickLower && p.Tick < pos.TickUpper {
		p.Liquidity = u256.Sub(p.Liquidity, liquidity)
	}
	pos.TokensOwed0 = u256.Add(pos.TokensOwed0, amount0)
	pos.TokensOwed1 = u256.Add(pos.TokensOwed1, amount1)
	res.Amount0, res.Amount1 = amount0, amount1
	return res, nil
}

// Collect withdraws up to (amount0Req, amount1Req) of the owed tokens from
// a position, returning what was actually paid. Collecting everything from
// a zero-liquidity position deletes it.
func (p *Pool) Collect(posID, caller string, amount0Req, amount1Req u256.Int) (paid0, paid1 u256.Int, err error) {
	pos := p.positions[posID]
	if pos == nil {
		return u256.Zero, u256.Zero, ErrPositionNotFound
	}
	if pos.Owner != caller {
		return u256.Zero, u256.Zero, ErrNotPositionOwner
	}
	pos = p.writePosition(posID)
	p.updatePositionFees(pos)
	paid0 = u256.Min(amount0Req, pos.TokensOwed0)
	paid1 = u256.Min(amount1Req, pos.TokensOwed1)
	pos.TokensOwed0 = u256.Sub(pos.TokensOwed0, paid0)
	pos.TokensOwed1 = u256.Sub(pos.TokensOwed1, paid1)
	p.Reserve0 = u256.Sub(p.Reserve0, paid0)
	p.Reserve1 = u256.Sub(p.Reserve1, paid1)
	if pos.Liquidity.IsZero() && pos.TokensOwed0.IsZero() && pos.TokensOwed1.IsZero() {
		delete(p.positions, posID)
		p.removePosition(posID)
	}
	return paid0, paid1, nil
}

// SwapResult reports the settled amounts of a swap.
type SwapResult struct {
	AmountIn     u256.Int // input consumed, fee included
	AmountOut    u256.Int // output produced
	FeeAmount    u256.Int // portion of AmountIn distributed to LPs
	SqrtPriceX96 u256.Int // price after the swap
	Tick         int32
	TicksCrossed int
}

// tickFlip is a crossed tick's new fee growth outside, pending commit.
type tickFlip struct {
	tick     int32
	fg0, fg1 u256.Int
}

// Swap executes a swap against the pool.
//
//   - zeroForOne: true to sell token0 for token1 (price decreases).
//   - exactIn: true when amountSpecified is the input amount; false when it
//     is the desired output amount.
//   - sqrtPriceLimitX96: the price beyond which the swap will not proceed
//     (u256.Zero selects the widest permissible limit).
func (p *Pool) Swap(zeroForOne, exactIn bool, amountSpecified, sqrtPriceLimitX96 u256.Int) (SwapResult, error) {
	return p.SwapIf(zeroForOne, exactIn, amountSpecified, sqrtPriceLimitX96, nil)
}

// SwapIf is Swap with the caller's post-conditions: accept, when non-nil,
// sees the complete result before anything is written and may refuse it.
// On any error the pool is untouched.
func (p *Pool) SwapIf(zeroForOne, exactIn bool, amountSpecified, sqrtPriceLimitX96 u256.Int, accept func(SwapResult) error) (SwapResult, error) {
	var res SwapResult
	if amountSpecified.IsZero() {
		return res, ErrZeroAmount
	}
	if sqrtPriceLimitX96.IsZero() {
		if zeroForOne {
			sqrtPriceLimitX96 = u256.Add(MinSqrtRatio, u256.One)
		} else {
			sqrtPriceLimitX96 = u256.Sub(MaxSqrtRatio, u256.One)
		}
	}
	if zeroForOne {
		if !sqrtPriceLimitX96.Lt(p.SqrtPriceX96) || !sqrtPriceLimitX96.Gt(MinSqrtRatio) {
			return res, ErrPriceLimit
		}
	} else {
		if !sqrtPriceLimitX96.Gt(p.SqrtPriceX96) || !sqrtPriceLimitX96.Lt(MaxSqrtRatio) {
			return res, ErrPriceLimit
		}
	}

	remaining := amountSpecified
	sqrtPrice := p.SqrtPriceX96
	tick := p.Tick
	liquidity := p.Liquidity
	fgGlobal := p.FeeGrowthGlobal0X128
	if !zeroForOne {
		fgGlobal = p.FeeGrowthGlobal1X128
	}
	// Crossings are applied at commit. A swap moves monotonically, so it
	// never reads back the fee growth of a tick it has crossed.
	flips := make([]tickFlip, 0, 4)

	for !remaining.IsZero() && !sqrtPrice.Eq(sqrtPriceLimitX96) {
		stepStart := sqrtPrice
		// Downward, the search includes the current tick: a price exactly
		// on an initialized tick it has not crossed yet crosses it with a
		// zero-amount step, as Uniswap V3 does.
		nextTick, found := p.nextInitializedTick(tick, zeroForOne)
		nextRatio := SqrtRatioAtTick(nextTick)
		sqrtTarget := nextRatio
		// Clamp the step target by the user's price limit.
		if zeroForOne {
			if sqrtTarget.Lt(sqrtPriceLimitX96) {
				sqrtTarget = sqrtPriceLimitX96
			}
		} else {
			if sqrtTarget.Gt(sqrtPriceLimitX96) {
				sqrtTarget = sqrtPriceLimitX96
			}
		}

		if liquidity.IsZero() {
			// No liquidity in this range: jump to the boundary.
			sqrtPrice = sqrtTarget
		} else {
			step, err := ComputeSwapStep(sqrtPrice, sqrtTarget, liquidity, remaining, p.FeePips, exactIn)
			if err != nil {
				return res, err
			}
			sqrtPrice = step.SqrtPriceNextX96
			if exactIn {
				consumed := u256.Add(step.AmountIn, step.FeeAmount)
				if consumed.Gt(remaining) {
					consumed = remaining
				}
				remaining = u256.Sub(remaining, consumed)
				res.AmountIn = u256.Add(res.AmountIn, consumed)
				res.AmountOut = u256.Add(res.AmountOut, step.AmountOut)
			} else {
				remaining = u256.Sub(remaining, step.AmountOut)
				res.AmountOut = u256.Add(res.AmountOut, step.AmountOut)
				res.AmountIn = u256.Add(res.AmountIn, u256.Add(step.AmountIn, step.FeeAmount))
			}
			res.FeeAmount = u256.Add(res.FeeAmount, step.FeeAmount)
			growth, _ := u256.MulDiv(step.FeeAmount, u256.Q128, liquidity)
			fgGlobal = u256.Add(fgGlobal, growth)
		}

		if sqrtPrice.Eq(nextRatio) && found {
			// Crossed an initialized tick: flip fee growth outside and
			// apply the net liquidity change.
			info := p.ticks[nextTick]
			if info != nil {
				flip := tickFlip{tick: nextTick}
				if zeroForOne {
					flip.fg0 = u256.Sub(fgGlobal, info.FeeGrowthOutside0X128)
					flip.fg1 = u256.Sub(p.FeeGrowthGlobal1X128, info.FeeGrowthOutside1X128)
					// Crossing right-to-left: subtract the net.
					liquidity = u256.Sub(u256.Add(liquidity, info.LiquidityNetSub), info.LiquidityNetAdd)
				} else {
					flip.fg0 = u256.Sub(p.FeeGrowthGlobal0X128, info.FeeGrowthOutside0X128)
					flip.fg1 = u256.Sub(fgGlobal, info.FeeGrowthOutside1X128)
					liquidity = u256.Sub(u256.Add(liquidity, info.LiquidityNetAdd), info.LiquidityNetSub)
				}
				flips = append(flips, flip)
			}
			res.TicksCrossed++
			if zeroForOne {
				tick = nextTick - 1
			} else {
				tick = nextTick
			}
		} else if !sqrtPrice.Eq(stepStart) {
			// Only a step that moved the price recomputes the tick: one
			// that spent its input on fee alone keeps the tick a crossing
			// just set. A step that did not cross stays near the tick it
			// started from.
			tick = tickAtSqrtRatioNear(sqrtPrice, tick)
		}

		if !found && sqrtPrice.Eq(nextRatio) {
			break // ran out of initialized ticks
		}
	}

	res.SqrtPriceX96 = sqrtPrice
	res.Tick = tick
	if accept != nil {
		if err := accept(res); err != nil {
			return res, err
		}
	}

	// Commit state. The crossed ticks are looked up again: the ones the
	// loop read may belong to a collection a Clone still shares.
	if len(flips) > 0 {
		p.ownTicks()
	}
	for _, f := range flips {
		info := p.ticks[f.tick]
		info.FeeGrowthOutside0X128, info.FeeGrowthOutside1X128 = f.fg0, f.fg1
	}
	p.SqrtPriceX96 = sqrtPrice
	p.Tick = tick
	p.Liquidity = liquidity
	if zeroForOne {
		p.FeeGrowthGlobal0X128 = fgGlobal
		p.Reserve0 = u256.Add(p.Reserve0, res.AmountIn)
		p.Reserve1 = u256.Sub(p.Reserve1, res.AmountOut)
	} else {
		p.FeeGrowthGlobal1X128 = fgGlobal
		p.Reserve1 = u256.Add(p.Reserve1, res.AmountIn)
		p.Reserve0 = u256.Sub(p.Reserve0, res.AmountOut)
	}
	return res, nil
}
