// Package dram models DRAM devices: DDR3 timing, bank and row-buffer
// state, open- and close-page policies, command-level FR-FCFS
// scheduling with per-bank queues, write-queue drain, bus turnaround
// and periodic refresh, address interleaving across channels, and
// per-operation energy counters.
//
// Two instances are used per simulated pod, mirroring the paper's
// methodology (§5.4, two separately configured DRAMSim2 instances):
// an off-chip DDR3-1600 channel and a 4-channel die-stacked DDR3-3200
// with 128-bit TSV buses.
package dram

import "fmt"

// Timing holds DDR timing constraints in DRAM bus cycles, as listed in
// the paper's Table 3 (identical for the stacked and off-chip parts;
// the stacked part's advantage is clock rate, channel count, and bus
// width).
type Timing struct {
	TCAS int // column access strobe latency
	TRCD int // row-to-column delay
	TRP  int // row precharge
	TRAS int // row access strobe (activate to precharge)
	TRC  int // row cycle (activate to activate, same bank)
	TWR  int // write recovery
	TWTR int // write-to-read turnaround
	TRTW int // read-to-write turnaround
	TRTP int // read-to-precharge
	TRRD int // activate-to-activate, different banks
	TFAW int // four-activate window
	// TREFI is the refresh interval and TRFC the refresh cycle time of
	// an all-bank refresh. TREFI <= 0 or TRFC <= 0 disables refresh
	// modeling (used by synthetic latency studies that halve or zero
	// parts of the timing).
	TREFI int
	TRFC  int
}

// Table3Timing returns the timing parameters of the paper's Table 3,
// plus the standard DDR3 turnaround and refresh parameters the paper
// leaves implicit (tRTW; tREFI = 7.8us and tRFC = 260ns at the
// DDR3-1600 bus clock — both parts share the table's cycle counts).
func Table3Timing() Timing {
	return Timing{
		TCAS: 11, TRCD: 11, TRP: 11, TRAS: 28,
		TRC: 39, TWR: 12, TWTR: 6, TRTW: 2, TRTP: 6,
		TRRD: 5, TFAW: 24,
		TREFI: 6240, TRFC: 208,
	}
}

// RowPolicy selects the row-buffer management policy.
type RowPolicy int

const (
	// OpenPage leaves a row open after an access, betting on row
	// locality (used by the page-based and Footprint designs, §5.2).
	OpenPage RowPolicy = iota
	// ClosePage precharges immediately after each access (used by the
	// block-based design, which has no data locality, §5.2).
	ClosePage
)

// String implements fmt.Stringer.
func (p RowPolicy) String() string {
	switch p {
	case OpenPage:
		return "open-page"
	case ClosePage:
		return "close-page"
	default:
		return fmt.Sprintf("RowPolicy(%d)", int(p))
	}
}

// Config describes one DRAM subsystem (all channels identical).
type Config struct {
	Name          string
	Timing        Timing
	Channels      int
	BanksPerChan  int
	RowBytes      int // row-buffer size (2KB in Table 3)
	BusBytesPerCy int // data-bus bytes per bus cycle (DDR: 2 beats/cycle x width)
	CPUPerBusCy   float64
	Policy        RowPolicy
	// InterleaveBytes is the channel-interleaving granularity: 64B for
	// the block-based design, 2KB for page-based and Footprint (§5.2).
	InterleaveBytes int
	// WriteQueueDepth sizes the per-channel posted-write queue used to
	// derive the drain thresholds; WriteDrainHigh starts a drain burst
	// when that many writes are pending and WriteDrainLow ends it.
	// Zero values take defaults (32 deep, drain between 24 and 8), so
	// existing literal configs keep working.
	WriteQueueDepth int
	WriteDrainHigh  int
	WriteDrainLow   int
}

// defaultWriteQueueDepth sizes the per-channel write queue when the
// config leaves it zero.
const defaultWriteQueueDepth = 32

// writeThresholds resolves the write-drain configuration, applying
// defaults for zero fields. It never reconciles contradictions —
// Validate rejects any resolved combination where low >= high or high
// exceeds the queue depth.
func (c Config) writeThresholds() (high, low int) {
	depth := c.WriteQueueDepth
	if depth <= 0 {
		depth = defaultWriteQueueDepth
	}
	high = c.WriteDrainHigh
	if high <= 0 {
		high = depth * 3 / 4
	}
	if high < 1 {
		// A zero high threshold would latch the channel into drain
		// mode and let any posted write preempt reads.
		high = 1
	}
	low = c.WriteDrainLow
	if low <= 0 {
		low = depth / 4
	}
	return high, low
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.Channels <= 0 || c.BanksPerChan <= 0 {
		return fmt.Errorf("dram %s: need positive channels/banks, got %d/%d", c.Name, c.Channels, c.BanksPerChan)
	}
	if c.BanksPerChan > 64 {
		// The controller tracks each channel's non-empty bank queues
		// in a uint64 bitmask.
		return fmt.Errorf("dram %s: %d banks per channel exceeds the limit of 64", c.Name, c.BanksPerChan)
	}
	if c.RowBytes <= 0 || c.RowBytes&(c.RowBytes-1) != 0 {
		return fmt.Errorf("dram %s: row size %d must be a power of two", c.Name, c.RowBytes)
	}
	if c.InterleaveBytes <= 0 || c.InterleaveBytes&(c.InterleaveBytes-1) != 0 {
		return fmt.Errorf("dram %s: interleave %d must be a power of two", c.Name, c.InterleaveBytes)
	}
	if c.BusBytesPerCy <= 0 {
		return fmt.Errorf("dram %s: bus bytes/cycle must be positive", c.Name)
	}
	if c.CPUPerBusCy <= 0 {
		return fmt.Errorf("dram %s: CPU/bus clock ratio must be positive", c.Name)
	}
	if c.Timing.TREFI > 0 && c.Timing.TRFC > 0 && c.Timing.TREFI <= c.Timing.TRFC+c.Timing.TRP {
		// A refresh (plus the precharge preceding it) longer than the
		// refresh interval would re-trigger forever and livelock the
		// scheduler: the channel never catches up.
		return fmt.Errorf("dram %s: tREFI %d must exceed tRFC %d + tRP %d",
			c.Name, c.Timing.TREFI, c.Timing.TRFC, c.Timing.TRP)
	}
	// Validate the write-drain thresholds as they will actually run —
	// after default resolution — so an explicit setting contradicting
	// a defaulted counterpart errors instead of silently rewriting the
	// configured policy.
	high, low := c.writeThresholds()
	depth := c.WriteQueueDepth
	if depth <= 0 {
		depth = defaultWriteQueueDepth
	}
	if high > depth {
		return fmt.Errorf("dram %s: write-drain high %d exceeds queue depth %d",
			c.Name, high, depth)
	}
	if low >= high {
		return fmt.Errorf("dram %s: write-drain low %d must be below high %d",
			c.Name, low, high)
	}
	return nil
}

// cpuCycles converts bus cycles to CPU cycles, rounding up.
func (c Config) cpuCycles(bus int) uint64 {
	v := float64(bus) * c.CPUPerBusCy
	u := uint64(v)
	if float64(u) < v {
		u++
	}
	return u
}

// BurstCPUCycles returns the CPU cycles the data bus is occupied
// transferring n bytes.
func (c Config) BurstCPUCycles(n int) uint64 {
	bus := (n + c.BusBytesPerCy - 1) / c.BusBytesPerCy
	if bus == 0 {
		bus = 1
	}
	return c.cpuCycles(bus)
}

const cpuGHz = 3.0 // Table 3: 3GHz cores

// OffChipDDR3_1600 returns the paper's off-chip memory configuration:
// one DDR3-1600 channel per pod, 8 banks, 2KB rows, 64-bit bus
// (12.8GB/s). The interleave and policy default to the Footprint/page
// setting (2KB, open-page); block-based runs override both (§5.2).
func OffChipDDR3_1600() Config {
	return Config{
		Name:            "offchip-ddr3-1600",
		Timing:          Table3Timing(),
		Channels:        1,
		BanksPerChan:    8,
		RowBytes:        2048,
		BusBytesPerCy:   16, // 64-bit DDR: 2 x 8B per bus cycle
		CPUPerBusCy:     cpuGHz * 1000 / 800,
		Policy:          OpenPage,
		InterleaveBytes: 2048,
	}
}

// StackedDDR3_3200 returns the paper's die-stacked configuration: 4
// channels per pod, 8 banks each, 2KB rows, 128-bit TSV buses at
// 1.6GHz (Table 3).
func StackedDDR3_3200() Config {
	return Config{
		Name:            "stacked-ddr3-3200",
		Timing:          Table3Timing(),
		Channels:        4,
		BanksPerChan:    8,
		RowBytes:        2048,
		BusBytesPerCy:   32, // 128-bit DDR: 2 x 16B per bus cycle
		CPUPerBusCy:     cpuGHz * 1000 / 1600,
		Policy:          OpenPage,
		InterleaveBytes: 2048,
	}
}

// Stats counts DRAM operations for bandwidth and energy accounting.
// Reads and writes are in 64-byte burst units.
type Stats struct {
	Activates   uint64
	ReadBursts  uint64
	WriteBursts uint64
	RowHits     uint64
	RowMisses   uint64 // closed-row activates
	RowConflict uint64 // open-row conflicts (precharge first)
	Refreshes   uint64 // all-bank refresh commands (timing model only)
}

// Accesses returns the total number of row-buffer access decisions.
func (s Stats) Accesses() uint64 { return s.RowHits + s.RowMisses + s.RowConflict }

// RowHitRatio returns the fraction of accesses that hit an open row.
func (s Stats) RowHitRatio() float64 {
	t := s.Accesses()
	if t == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(t)
}

// DataBytes returns the total data moved, in bytes.
func (s Stats) DataBytes() uint64 { return (s.ReadBursts + s.WriteBursts) * 64 }

// Sub returns s minus o, used to exclude warmup from measurements.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Activates:   s.Activates - o.Activates,
		ReadBursts:  s.ReadBursts - o.ReadBursts,
		WriteBursts: s.WriteBursts - o.WriteBursts,
		RowHits:     s.RowHits - o.RowHits,
		RowMisses:   s.RowMisses - o.RowMisses,
		RowConflict: s.RowConflict - o.RowConflict,
		Refreshes:   s.Refreshes - o.Refreshes,
	}
}
