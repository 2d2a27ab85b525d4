package experiments

import "repro/internal/campaign"

// Table3 reproduces the paper's Table 3: disable and re-enable one core,
// then launch each NAS application with 64 threads (the machine's default
// configuration), as the campaign workload nas-hotplug:<app>. With the
// bug, domain regeneration drops the NUMA levels and all threads stay on
// the node where they were forked — one node instead of eight.
// Super-linear slowdowns (up to 138x for lu) come from spinning on locks
// and barriers while holders sit in runqueues. Each run is timed from
// the application's launch, HotplugSettle after the hotplug cycle.
func Table3(opts Options) []NASRow {
	return nasTable(opts, "nas-hotplug:", "fx-md", campaign.HotplugSettle)
}

// FormatTable3 renders rows in the paper's Table 3 layout.
func FormatTable3(rows []NASRow) string {
	return formatNAS(rows, "Table 3: NAS execution time with/without the Missing Scheduling Domains bug\n"+
		"(64 threads, after disabling and re-enabling one core)\n")
}
