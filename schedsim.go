// Package schedsim is the public API of this reproduction of "The Linux
// Scheduler: a Decade of Wasted Cores" (Lozi et al., EuroSys 2016).
//
// It exposes, as a single import, everything a user needs to
//
//   - build a simulated multicore NUMA machine running the paper's CFS
//     model (NewMachine, Bulldozer8, DefaultConfig),
//   - toggle each of the paper's four scheduler bugs and fixes (Features),
//   - run the paper's workloads (NASSuite, LaunchMake, NewTPCH,
//     StartNoise) or build custom ones (NewProgram, process/thread
//     spawning, spinlocks, barriers, work queues),
//   - detect invariant violations with the online sanity checker
//     (NewChecker, §4.1),
//   - record and visualize scheduling activity (NewRecorder,
//     RQSizeHeatmap, §4.2),
//   - and sweep whole scenario campaigns — topology x workload x config
//     x seed cross-products — on a parallel worker pool with
//     byte-reproducible JSON artifacts and baseline regression
//     comparison (RunCampaign, DefaultCampaignMatrix).
//
// The tables and figures of the paper's evaluation are not part of this
// API: the wastedcores command (cmd/wastedcores) regenerates them.
//
// A minimal session:
//
//	m := schedsim.NewMachine(schedsim.Bulldozer8(), schedsim.DefaultConfig(), 1)
//	p := m.NewProc("app", schedsim.ProcOpts{})
//	p.Spawn(schedsim.NewProgram().Compute(10*schedsim.Millisecond).Build(),
//	        schedsim.SpawnOpts{})
//	m.RunUntilDone(schedsim.Second, p)
//
// Determinism: identical seeds produce identical runs, event for event.
package schedsim

import (
	"repro/internal/campaign"
	"repro/internal/checker"
	"repro/internal/machine"
	"repro/internal/modsched"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/tourney"
	"repro/internal/trace"
	"repro/internal/viz"
	"repro/internal/workload"
)

// Virtual time (nanosecond resolution).
type (
	// Time is a point or duration in virtual time.
	Time = sim.Time
	// Engine is the deterministic discrete-event engine.
	Engine = sim.Engine
)

// Duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Machine topology.
type (
	// Topology describes cores, SMT siblings, NUMA nodes and hop
	// distances.
	Topology = topology.Topology
	// CoreID identifies a logical CPU.
	CoreID = topology.CoreID
	// NodeID identifies a NUMA node.
	NodeID = topology.NodeID
)

// Topology constructors.
var (
	// Bulldozer8 is the paper's 64-core, 8-node machine (Table 5, Fig 4).
	Bulldozer8 = topology.Bulldozer8
	// Machine32 is the 32-core, 4-node machine of Figure 1.
	Machine32 = topology.Machine32
	// SMP builds a single-node machine with n cores.
	SMP = topology.SMP
	// TwoNode builds a two-node machine.
	TwoNode = topology.TwoNode
	// Ring builds an n-node ring machine.
	Ring = topology.Ring
	// Grid builds a rows x cols NUMA mesh.
	Grid = topology.Grid
)

// Scheduler configuration and state.
type (
	// Config carries the CFS tunables and feature flags.
	Config = sched.Config
	// Features selects the four bug fixes independently.
	Features = sched.Features
	// Scheduler is the CFS model (usually accessed via Machine.Sched).
	Scheduler = sched.Scheduler
	// Thread is a schedulable entity.
	Thread = sched.Thread
	// CPUSet is an affinity mask (tasksets, §3.2).
	CPUSet = sched.CPUSet
	// Counters aggregates scheduler activity.
	Counters = sched.Counters
)

// Scheduler constructors and helpers.
var (
	// DefaultConfig returns kernel-default tunables with all four bugs
	// present — the kernel the paper studied.
	DefaultConfig = sched.DefaultConfig
	// AllFixes returns a Features value with every fix enabled.
	AllFixes = sched.AllFixes
	// NewCPUSet builds an affinity mask from core ids.
	NewCPUSet = sched.NewCPUSet
	// FullCPUSet builds a mask of cores [0, n).
	FullCPUSet = sched.FullCPUSet
)

// Machine and workload programs.
type (
	// Machine is a complete simulated system.
	Machine = machine.Machine
	// Proc is a process (threads sharing an autogroup).
	Proc = machine.Proc
	// MThread pairs a scheduler thread with its program.
	MThread = machine.MThread
	// ProcOpts configures process creation.
	ProcOpts = machine.ProcOpts
	// SpawnOpts configures thread creation.
	SpawnOpts = machine.SpawnOpts
	// Program is an executable instruction list.
	Program = machine.Program
	// Builder assembles Programs.
	Builder = machine.Builder
	// SpinLock burns CPU while contended (§3.2).
	SpinLock = machine.SpinLock
	// SpinBarrier is a (possibly adaptive) spin barrier.
	SpinBarrier = machine.SpinBarrier
	// SpinFlag is a directional busy-wait handoff (lu's pipeline).
	SpinFlag = machine.SpinFlag
	// WaitQueue is a futex-style blocking queue.
	WaitQueue = machine.WaitQueue
	// WorkQueue is a worker-pool task queue (§3.3's database).
	WorkQueue = machine.WorkQueue
	// Task is one WorkQueue work item.
	Task = machine.Task
)

// Machine constructors.
var (
	// NewMachine builds a machine over a topology with a seed.
	NewMachine = machine.New
	// NewProgram starts a program builder.
	NewProgram = machine.NewProgram
)

// Workloads.
type (
	// NASApp parametrizes one synthetic NAS program.
	NASApp = workload.NASApp
	// NASLaunchOpts configures a NAS run.
	NASLaunchOpts = workload.NASLaunchOpts
	// MakeOpts configures the kernel-make-like job (§3.1).
	MakeOpts = workload.MakeOpts
	// TPCH is the running database instance (§3.3).
	TPCH = workload.TPCH
	// TPCHOpts configures the database.
	TPCHOpts = workload.TPCHOpts
	// Noise emits transient kernel threads (§3.3).
	Noise = workload.Noise
	// NoiseOpts configures the noise generator.
	NoiseOpts = workload.NoiseOpts
)

// Workload constructors.
var (
	// NASSuite returns the nine NPB-like applications.
	NASSuite = workload.NASSuite
	// NASAppByName finds a suite entry.
	NASAppByName = workload.NASAppByName
	// LaunchMake starts the make-like job.
	LaunchMake = workload.LaunchMake
	// LaunchR starts a single-threaded CPU hog in its own autogroup.
	LaunchR = workload.LaunchR
	// NewTPCH builds the worker-pool database.
	NewTPCH = workload.NewTPCH
	// StartNoise begins transient kernel-thread bursts.
	StartNoise = workload.StartNoise
	// NodeSet builds the taskset covering whole NUMA nodes.
	NodeSet = workload.NodeSet
	// DefaultTPCHOpts returns the paper's database configuration.
	DefaultTPCHOpts = workload.DefaultTPCHOpts
	// DefaultNoiseOpts returns §3.3-scale background noise.
	DefaultNoiseOpts = workload.DefaultNoiseOpts
	// DefaultMakeOpts returns the Figure 2 make parameters.
	DefaultMakeOpts = workload.DefaultMakeOpts
)

// Tools: the sanity checker (§4.1) and the visualizer (§4.2).
type (
	// Checker verifies the work-conserving invariant online.
	Checker = checker.Checker
	// CheckerConfig tunes S, M and the profiling window.
	CheckerConfig = checker.Config
	// Violation is a confirmed invariant violation.
	Violation = checker.Violation
	// Recorder captures scheduler events.
	Recorder = trace.Recorder
	// Event is one trace event.
	Event = trace.Event
	// Heatmap is a cores x time intensity chart.
	Heatmap = viz.Heatmap
)

// Tool constructors.
var (
	// NewChecker attaches a sanity checker to a scheduler.
	NewChecker = checker.New
	// NewRecorder allocates a fixed-capacity trace buffer.
	NewRecorder = trace.NewRecorder
	// ReadTrace parses a binary trace file.
	ReadTrace = trace.Read
	// RQSizeHeatmap builds the Figure 2a/3 chart from events.
	RQSizeHeatmap = viz.RQSizeHeatmap
	// LoadHeatmap builds the Figure 2b chart from events.
	LoadHeatmap = viz.LoadHeatmap
	// ConsideredChart renders the Figure 5 chart.
	ConsideredChart = viz.ConsideredChart
	// SummarizeBalance aggregates balance decisions (§4.1 profiling).
	SummarizeBalance = viz.SummarizeBalance
	// DiagnoseGroupImbalance looks for the §3.1 signature in a trace.
	DiagnoseGroupImbalance = viz.DiagnoseGroupImbalance
	// TraceEpisodes extracts idle-while-overloaded episodes from a trace.
	TraceEpisodes = viz.Episodes
	// AnalyzeEpisodes summarizes episode durations (Figure 3's recovery
	// analysis).
	AnalyzeEpisodes = viz.AnalyzeEpisodes
)

// The §5 modular scheduler prototype: a core module that owns the
// work-conserving invariant plus optimization modules that suggest
// placements.
type (
	// CoreModule arbitrates module suggestions and enforces the
	// invariant.
	CoreModule = modsched.CoreModule
	// SchedulerModule is one optimization module.
	SchedulerModule = modsched.Module
	// ModularConfig tunes the core module.
	ModularConfig = modsched.Config
	// CacheAffinityModule suggests waking threads near their data.
	CacheAffinityModule = modsched.CacheAffinity
	// LoadSpreadModule suggests the least-loaded core.
	LoadSpreadModule = modsched.LoadSpread
	// NUMALocalityModule prefers the thread's last NUMA node.
	NUMALocalityModule = modsched.NUMALocality
)

// AttachModular installs the §5 core module on a scheduler.
var AttachModular = modsched.Attach

// The campaign subsystem: declarative scenario matrices executed on a
// sharded worker pool with byte-reproducible aggregate artifacts and
// baseline regression comparison.
type (
	// CampaignMatrix declares a topology x workload x config x seed
	// cross-product.
	CampaignMatrix = campaign.Matrix
	// CampaignScenario is one resolved cell of a matrix.
	CampaignScenario = campaign.Scenario
	// CampaignWorkload is a named scenario workload.
	CampaignWorkload = campaign.Workload
	// CampaignTopologySpec is a named topology constructor.
	CampaignTopologySpec = campaign.TopologySpec
	// CampaignConfigSpec is a named scheduler configuration.
	CampaignConfigSpec = campaign.ConfigSpec
	// CampaignRunnerOpts tunes campaign execution (workers, base seed,
	// checker cadence, trace capture).
	CampaignRunnerOpts = campaign.RunnerOpts
	// Campaign is the aggregate artifact of one matrix run.
	Campaign = campaign.Campaign
	// CampaignResult is one scenario's collected metrics.
	CampaignResult = campaign.Result
	// CampaignComparison is the diff of a campaign against a baseline.
	CampaignComparison = campaign.Comparison
)

// Campaign runner and helpers.
var (
	// RunCampaign executes a whole matrix on a worker pool.
	RunCampaign = campaign.Run
	// DefaultCampaignMatrix is the standard 30-scenario sweep.
	DefaultCampaignMatrix = campaign.DefaultMatrix
	// LoadCampaign reads a JSON artifact written by Campaign.WriteFile.
	LoadCampaign = campaign.Load
	// CompareCampaigns diffs two artifacts for per-scenario regressions.
	CompareCampaigns = campaign.Compare
)

// Policy registry and tournaments: the pluggable scheduler-policy API
// (internal/policy) and the campaign tournaments over it
// (internal/tourney).
type (
	// Policy is one named, versioned point in the scheduler design
	// space: a sched.Config plus optional modsched modules and an
	// attach hook for placement overrides or queueing disciplines.
	Policy = policy.Policy
	// TourneyOptions declares a tournament: cell dimensions, policy
	// lineup, verdict tolerances.
	TourneyOptions = tourney.Options
	// TourneyReport is the tournament artifact: per-cell scores and
	// verdicts plus non-monotone policy flips.
	TourneyReport = tourney.Report
)

// Policy registration and tournament entry points.
var (
	// RegisterPolicy adds a policy to the registry (error on duplicate
	// name); registered policies are campaign config coordinates.
	RegisterPolicy = policy.Register
	// PolicyByName looks a registered policy up.
	PolicyByName = policy.ByName
	// RunTourney executes a tournament and analyzes it.
	RunTourney = tourney.Run
	// LoadTourney reads a JSON artifact written by TourneyReport.WriteFile.
	LoadTourney = tourney.Load
)
