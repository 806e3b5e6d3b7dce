"""Platform configuration: the Table-1 analog of the paper.

The paper evaluates on the Hector multiprocessor running the Hurricane OS
with 64 MB of memory (roughly 48 MB available to the application) and seven
disks, with pages striped round-robin across all disks (paper, Section 3.1
and Table 1).  We reproduce the same *structure* at a smaller scale so that
the trace-driven simulation stays tractable in pure Python: the default
platform has 2 MB of physical memory (512 four-KB pages) of which 75% is
available to the application, and seven simulated disks.

All times in this package are simulated **microseconds**.  The disk timing
parameters are modeled on a mid-1990s SCSI disk (~10 ms average seek,
5400 RPM, ~5 MB/s media rate) matching the era of the paper's platform.

Scaling note (recorded in DESIGN.md): the paper's results are ratios --
speedups, stall fractions, coverage and filtering percentages -- which are
preserved under proportional scaling of memory and data-set size as long as
the compute-per-page to disk-latency ratio is kept in the same regime.  The
benchmark harness documents the scale used for every experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from repro.errors import ConfigError, ensure_finite

#: Number of bytes in one virtual-memory page on the default platform.
DEFAULT_PAGE_SIZE = 4096

#: Default number of physical page frames (2 MB of memory).
DEFAULT_MEMORY_PAGES = 512

#: Fraction of physical memory available to the application.  The paper's
#: 64 MB machine left roughly 48 MB (75%) to the application (Section 4.3.3).
DEFAULT_AVAILABLE_FRACTION = 0.75

#: Number of disks the file system stripes across (paper, Section 3.1).
DEFAULT_NUM_DISKS = 7


@dataclass(frozen=True)
class DiskParameters:
    """Service-time model for one disk.

    A *random* access pays seek + rotational latency + transfer; a
    *sequential* access (the next block of the same extent, detected by the
    disk model from the previously served block address) pays only the
    transfer time plus a small command overhead.  The extent-based on-disk
    layout of the paper's file system (Section 3.1) makes sequential file
    blocks sequential on disk, which is what makes striping + extents pay
    off for the prefetching version.
    """

    avg_seek_us: float = 10_000.0
    short_seek_us: float = 2_500.0
    rotational_us: float = 5_600.0  # half a revolution at 5400 RPM
    transfer_us_per_page: float = 800.0  # 4 KB at ~5 MB/s
    command_overhead_us: float = 300.0
    #: Block distance within which a seek counts as short (a streaming
    #: read interleaved with its own trailing write-backs stays inside
    #: this window, as it would under a real elevator scheduler).
    near_window_blocks: int = 128

    def __post_init__(self) -> None:
        # Zero seek / rotation is legal (the DSM profile is position
        # independent), but negative time is not, and the transfer term
        # must stay positive so every service time is > 0.
        for name in ("avg_seek_us", "short_seek_us", "rotational_us",
                     "command_overhead_us", "transfer_us_per_page"):
            value = ensure_finite(getattr(self, name), f"disk parameter {name!r}")
            if value < 0:
                raise ConfigError(f"disk parameter {name!r} must be >= 0, got {value}")
        if self.transfer_us_per_page <= 0:
            raise ConfigError(
                f"transfer_us_per_page must be > 0, got {self.transfer_us_per_page}"
            )
        if self.near_window_blocks < 0:
            raise ConfigError(
                f"near_window_blocks must be >= 0, got {self.near_window_blocks}"
            )

    def random_service_us(self, pages: int = 1) -> float:
        """Service time for a random access of ``pages`` contiguous pages."""
        return (
            self.command_overhead_us
            + self.avg_seek_us
            + self.rotational_us
            + pages * self.transfer_us_per_page
        )

    def near_service_us(self, pages: int = 1) -> float:
        """Service time for a short seek within the near window."""
        return (
            self.command_overhead_us
            + self.short_seek_us
            + self.rotational_us / 2
            + pages * self.transfer_us_per_page
        )

    def sequential_service_us(self, pages: int = 1) -> float:
        """Service time when the head is already positioned (same extent)."""
        return self.command_overhead_us + pages * self.transfer_us_per_page

    @classmethod
    def dsm_network(cls) -> "DiskParameters":
        """A DSM latency profile instead of a disk (paper Section 6).

        "Page-based prefetching is applicable to domains other than disk
        I/O; for example, we are adapting our compiler technology to
        prefetch the page-sized chunks of data that are communicated
        between workstations in distributed shared memory (DSM) systems."

        A remote page fetch is a software RPC plus a network transfer:
        position-independent (no seek or rotation), a few milliseconds
        flat at mid-90s LAN speeds.
        """
        return cls(
            avg_seek_us=0.0,
            short_seek_us=0.0,
            rotational_us=0.0,
            transfer_us_per_page=3_300.0,  # 4 KB at ~10 Mbit/s
            command_overhead_us=1_200.0,  # RPC + protocol handling
            near_window_blocks=1,
        )


@dataclass(frozen=True)
class CostModel:
    """CPU-side cost model (simulated microseconds).

    The paper reports that dropping an unnecessary prefetch in the run-time
    layer costs roughly 1% of issuing it to the OS (Section 4.1.1), and that
    fault handling and prefetch system calls are inflated by instrumentation
    and uncached OS data structures (Section 3.1).  The defaults below keep
    those ratios.
    """

    #: OS time to handle one page fault (trap, page-table walk, map-in).
    fault_service_us: float = 400.0
    #: OS time to reclaim a page that is still on the free list (no I/O).
    fault_reclaim_us: float = 120.0
    #: System-call overhead of one prefetch request reaching the OS.
    prefetch_syscall_us: float = 150.0
    #: Incremental OS cost per page within one block prefetch call.
    prefetch_per_page_us: float = 15.0
    #: System-call overhead of one release request.
    release_syscall_us: float = 120.0
    #: Incremental OS cost per page within one release call.
    release_per_page_us: float = 10.0
    #: User-level run-time layer cost of checking one page in the bit vector.
    filter_check_us: float = 1.5
    #: User-level cost of computing one prefetch address (address generation
    #: instructions inserted by the compiler).
    addr_gen_us: float = 0.4

    def validate(self) -> None:
        for name, value in vars(self).items():
            ensure_finite(value, f"cost model field {name!r}")
            if value < 0:
                raise ConfigError(f"cost model field {name!r} must be >= 0, got {value}")


@dataclass(frozen=True)
class PlatformConfig:
    """Complete description of the simulated machine (Table 1 analog)."""

    page_size: int = DEFAULT_PAGE_SIZE
    memory_pages: int = DEFAULT_MEMORY_PAGES
    available_fraction: float = DEFAULT_AVAILABLE_FRACTION
    num_disks: int = DEFAULT_NUM_DISKS
    disk: DiskParameters = field(default_factory=DiskParameters)
    cost: CostModel = field(default_factory=CostModel)
    #: Pages fetched per block prefetch for references with spatial locality
    #: (paper Section 2.3: "four pages are fetched at a time").
    prefetch_block_pages: int = 4
    #: Virtual pages represented by one bit of the shared residency bit
    #: vector (paper Section 2.4: granularity chosen by the run-time layer).
    bitvector_granularity: int = 1
    #: Fraction of application frames the page-out daemon keeps free.
    #: Like every paged VM of the era, Hurricane replenishes a free pool
    #: in the background (the paper's OS drops prefetches only when "all
    #: memory is in use", which the daemon makes rare); the daemon runs on
    #: another processor of the Hector machine, so it costs no CPU time
    #: here -- only the disk traffic of its dirty write-backs.
    free_target_fraction: float = 0.08

    def __post_init__(self) -> None:
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ConfigError(f"page_size must be a positive power of two, got {self.page_size}")
        if self.memory_pages <= 0:
            raise ConfigError(f"memory_pages must be positive, got {self.memory_pages}")
        if not 0.0 < self.available_fraction <= 1.0:
            raise ConfigError(
                f"available_fraction must be in (0, 1], got {self.available_fraction}"
            )
        if self.num_disks <= 0:
            raise ConfigError(f"num_disks must be positive, got {self.num_disks}")
        if self.prefetch_block_pages <= 0:
            raise ConfigError(
                f"prefetch_block_pages must be positive, got {self.prefetch_block_pages}"
            )
        if self.bitvector_granularity <= 0:
            raise ConfigError(
                f"bitvector_granularity must be positive, got {self.bitvector_granularity}"
            )
        if not 0.0 <= self.free_target_fraction < 1.0:
            raise ConfigError(
                f"free_target_fraction must be in [0, 1), got {self.free_target_fraction}"
            )
        self.cost.validate()

    @property
    def available_frames(self) -> int:
        """Physical frames usable by the application (the rest is the OS)."""
        return max(1, int(self.memory_pages * self.available_fraction))

    @property
    def memory_bytes(self) -> int:
        return self.memory_pages * self.page_size

    @property
    def available_bytes(self) -> int:
        return self.available_frames * self.page_size

    def scaled(self, **overrides: Any) -> "PlatformConfig":
        """Return a copy with the given fields replaced.

        Convenience for experiments that shrink memory (Figure 8's problem
        size sweep) or disable block prefetching (ablations).
        """
        return replace(self, **overrides)

    def average_fault_latency_us(self) -> float:
        """Rough end-to-end latency of one demand page fault.

        Used by the compiler's software-pipelining stage to choose the
        prefetch distance, mirroring how the paper's compiler was given the
        page-fault latency as an input parameter (Section 2.3).
        """
        return self.cost.fault_service_us + self.disk.random_service_us(1)

    @classmethod
    def dsm(cls, home_nodes: int = 4, **overrides: Any) -> "PlatformConfig":
        """A DSM platform: remote home nodes instead of disks (Section 6).

        Pages stripe round-robin across ``home_nodes`` peer workstations;
        a "read" is a remote page fetch, a "write-back" pushes the page
        home.  Everything else -- the compiler, the hints, the run-time
        layer -- is unchanged, which is the paper's point.
        """
        base = dict(
            num_disks=home_nodes,
            disk=DiskParameters.dsm_network(),
        )
        base.update(overrides)
        return cls(**base)


#: The default simulated platform, used by tests and examples.
DEFAULT_PLATFORM = PlatformConfig()

#: The variants one application runs as, with their ``Machine`` /
#: ``run_variant`` flags: O (plain paged VM), P (compiled prefetching
#: with the run-time layer), P without the run-time layer (Figure 4(c)),
#: and P with adaptive suppression.  Every variant but O runs the
#: compiled program.
VARIANTS: dict[str, dict[str, bool]] = {
    "o": {"prefetching": False},
    "p": {"prefetching": True},
    "nofilter": {"prefetching": True, "runtime_filter": False},
    "adaptive": {"prefetching": True, "adaptive_prefetch": True},
}
