// The physical bank hierarchy of a PIM memory device. The paper models
// endurance on one 1024×1024 array, but real PIM substrates are
// hierarchies — channel → bank group → bank, each bank its own array
// (the Ramulator PIM_DDR4/PIM_HBM3 device models use exactly this
// shape). Organization captures that geometry as data; the scheduling
// of work across it lives in internal/system.
package device

import "fmt"

// Organization describes the bank hierarchy of a multi-bank PIM device:
// Channels × BankGroups (per channel) × Banks (per group), every bank an
// independent PIM array with its own wear state. The flat bank id space
// is group-major: banks of one group are contiguous, groups of one
// channel are contiguous (see Position).
type Organization struct {
	// Name identifies the organization ("DDR4", "HBM3", …).
	Name string
	// Channels is the number of independent channels.
	Channels int
	// BankGroups is the number of bank groups per channel.
	BankGroups int
	// Banks is the number of banks per bank group.
	Banks int
	// Notes carries the sizing provenance.
	Notes string
}

// Validate reports malformed organizations.
func (o Organization) Validate() error {
	if o.Channels <= 0 || o.BankGroups <= 0 || o.Banks <= 0 {
		return fmt.Errorf("device: organization %q needs positive channels×groups×banks, got %d×%d×%d",
			o.Name, o.Channels, o.BankGroups, o.Banks)
	}
	return nil
}

// TotalBanks is the flat bank count, Channels × BankGroups × Banks.
func (o Organization) TotalBanks() int { return o.Channels * o.BankGroups * o.Banks }

// TotalGroups is the flat bank-group count, Channels × BankGroups.
func (o Organization) TotalGroups() int { return o.Channels * o.BankGroups }

// Position maps a flat bank id to its (channel, group, bank) coordinates.
func (o Organization) Position(id int) (channel, group, bank int) {
	bank = id % o.Banks
	g := id / o.Banks
	return g / o.BankGroups, g % o.BankGroups, bank
}

// String formats the organization compactly.
func (o Organization) String() string {
	return fmt.Sprintf("%s (%d ch × %d groups × %d banks = %d banks)",
		o.Name, o.Channels, o.BankGroups, o.Banks, o.TotalBanks())
}

// DDR4Organization returns a DDR4-sized hierarchy: one channel of 4 bank
// groups × 4 banks (the JEDEC x4/x8 organization), 16 banks total.
func DDR4Organization() Organization {
	return Organization{
		Name:       "DDR4",
		Channels:   1,
		BankGroups: 4,
		Banks:      4,
		Notes:      "JEDEC DDR4 x4/x8: 4 bank groups × 4 banks per channel",
	}
}

// HBM3Organization returns an HBM3-sized hierarchy: 16 independent
// channels, each 4 bank groups × 4 banks — 256 banks per stack.
func HBM3Organization() Organization {
	return Organization{
		Name:       "HBM3",
		Channels:   16,
		BankGroups: 4,
		Banks:      4,
		Notes:      "HBM3 stack: 16 channels × 4 bank groups × 4 banks",
	}
}

// SingleBank returns the degenerate one-bank organization — the paper's
// single-array baseline every scaling curve is measured against.
func SingleBank() Organization {
	return Organization{Name: "single", Channels: 1, BankGroups: 1, Banks: 1,
		Notes: "the paper's single-array baseline"}
}

// FlatOrganization returns n banks in one bank group of one channel —
// bank-count sweeps that do not exercise the group hierarchy.
func FlatOrganization(n int) Organization {
	return Organization{Name: fmt.Sprintf("flat%d", n), Channels: 1, BankGroups: 1, Banks: n,
		Notes: "flat bank-count sweep point"}
}

// Organizations lists the named presets in a stable presentation order.
func Organizations() []Organization {
	return []Organization{SingleBank(), DDR4Organization(), HBM3Organization()}
}
