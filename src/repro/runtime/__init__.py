"""The user-level run-time layer.

The paper's run-time layer (Section 2.2.2 and 2.4) keeps a bit vector --
on a physical page shared with the OS -- recording which virtual pages are
believed resident, and uses it to drop compiler-inserted prefetches for
already-resident pages *without* a system call.  The paper measures this
filtering to be essential: dropping a prefetch in the run-time layer costs
roughly 1% of issuing it to the OS, and over 96% of the compiler-inserted
prefetches are unnecessary in most applications (Figure 4(b,c)).
"""

from repro.runtime.layer import RuntimeLayer
from repro.vm.residency import ResidencyBitVector

__all__ = ["ResidencyBitVector", "RuntimeLayer"]
