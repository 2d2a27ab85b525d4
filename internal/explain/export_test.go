package explain

// The test switches, for the external test package.
var (
	ReplayEveryFix = &replayEveryFix
	FixReplayed    = &fixReplayed
)
