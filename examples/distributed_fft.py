#!/usr/bin/env python
"""Distributed radix-2 FFT with the library's bit-reversal permutation.

§7's point is that the transpose machinery generalizes: the *general
exchange algorithm* with pairs ``(i, m-1-i)`` realizes the bit-reversal
permutation every decimation-in-frequency FFT needs.  This example runs
a full distributed FFT of ``2^m`` samples on the simulated cube:

* butterfly stages over the high-order (processor) address bits exchange
  whole local arrays with the neighbour across that cube dimension;
* stages over low-order (local) bits are node-local NumPy butterflies;
* the final bit-reversed ordering is repaired with
  :func:`repro.permute.bit_reversal_permute`.

The spectrum is verified against ``numpy.fft.fft``.

Run:  python examples/distributed_fft.py
"""

import numpy as np

from repro import EnsembleNetwork, DistributedMatrix, Layout, ProcField, intel_ipsc
from repro.machine import Block, Message
from repro.permute.bit_reversal import bit_reversal_permute

M_BITS = 9  # 512 samples
CUBE_DIM = 3  # 8 processors


def vector_layout() -> Layout:
    """A 2^m vector as a 2^m x 1 matrix, cyclic over the low address bits.

    Cyclic assignment keeps each butterfly stage's partner pattern
    simple: the high m - n address bits are local, the low n bits select
    the processor.
    """
    dims = tuple(range(CUBE_DIM - 1, -1, -1))
    return Layout(M_BITS, 0, (ProcField(dims),), name="vector-cyclic")


def butterfly(a: np.ndarray, b: np.ndarray, twiddle: np.ndarray):
    """One DIF butterfly: (a + b, (a - b) * w)."""
    return a + b, (a - b) * twiddle


def distributed_fft(x: np.ndarray) -> tuple[np.ndarray, float]:
    layout = vector_layout()
    dm = DistributedMatrix.from_global(
        x.astype(np.complex128).reshape(-1, 1), layout
    )
    local = dm.local_data.copy()  # shape (N, L); slot j holds sample bits
    net = EnsembleNetwork(intel_ipsc(CUBE_DIM))
    N, L = local.shape
    m = M_BITS

    # Decimation in frequency: stages from the most significant address
    # bit down.  With the cyclic layout, address bit b >= n is local
    # offset bit b - n; address bits < n live on the processor address.
    for b in range(m - 1, -1, -1):
        span = 1 << b
        if b >= CUBE_DIM:
            # Local butterfly between offset bits.
            off = 1 << (b - CUBE_DIM)
            shaped = local.reshape(N, L // (2 * off), 2, off)
            top = shaped[:, :, 0, :].copy()
            bot = shaped[:, :, 1, :].copy()
            # Twiddle exponent = (top sample index mod span) over the DFT
            # size remaining at this stage (2 * span).
            idx_top = _sample_indices(layout, N, L).reshape(
                N, L // (2 * off), 2, off
            )[:, :, 0, :]
            w = np.exp(-2j * np.pi * (idx_top % span) / (2 * span))
            new_top, new_bot = butterfly(top, bot, w)
            shaped[:, :, 0, :] = new_top
            shaped[:, :, 1, :] = new_bot
        else:
            # Exchange the whole local array with the neighbour across
            # cube dimension b, then combine.
            messages = []
            for proc in range(N):
                net.place(proc, Block(("fft", b, proc), data=local[proc].copy()))
                messages.append(Message(proc, proc ^ (1 << b), (("fft", b, proc),)))
            net.execute_phase(messages)
            combined = np.empty_like(local)
            sample_idx = _sample_indices(layout, N, L)
            for proc in range(N):
                other = net.memory(proc).pop(("fft", b, proc ^ (1 << b))).data
                if (proc >> b) & 1:  # holds the "bottom" halves
                    w = np.exp(
                        -2j * np.pi * (sample_idx[proc] % span) / (2 * span)
                    )
                    combined[proc] = (other - local[proc]) * w
                else:
                    combined[proc] = local[proc] + other
            local = combined
    result = DistributedMatrix(layout, local)

    # The DIF output is in bit-reversed sample order; restore it with the
    # general exchange algorithm (§7).
    restored = bit_reversal_permute(net, result)
    return restored.to_global().reshape(-1), net.time


def _sample_indices(layout: Layout, N: int, L: int) -> np.ndarray:
    """sample_index[proc, slot] = global address stored at (proc, slot)."""
    w = np.arange(N * L, dtype=np.int64)
    owners = layout.owner_array(w)
    offsets = layout.offset_array(w)
    out = np.empty(N * L, dtype=np.int64)
    out[owners * L + offsets] = w
    return out.reshape(N, L)


def main() -> None:
    rng = np.random.default_rng(7)
    x = rng.standard_normal(1 << M_BITS) + 1j * rng.standard_normal(1 << M_BITS)
    spectrum, comm_time = distributed_fft(x)
    reference = np.fft.fft(x)
    err = np.max(np.abs(spectrum - reference)) / np.max(np.abs(reference))
    print(f"{1 << M_BITS}-point FFT on {1 << CUBE_DIM} simulated nodes")
    print(f"max relative error vs numpy.fft: {err:.3e}")
    print(f"modelled communication time (iPSC): {comm_time * 1e3:.1f} ms")
    assert err < 1e-12


if __name__ == "__main__":
    main()
