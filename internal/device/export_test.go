package device

// Helpers that only this package's tests use.

// BankID flattens a (channel, group, bank) position into the group-major
// flat id space [0, TotalBanks).
func (o Organization) BankID(channel, group, bank int) int {
	return (channel*o.BankGroups+group)*o.Banks + bank
}
