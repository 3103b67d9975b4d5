"""Normal forms with parallel torsion, and where the rank bound bites.

The codimension-two family splits into three generator shapes when the
torsion is parallel for the skew-torsion connection.  The classifier
recovers the shape and its parameters from any unitary frame.  This
script also demonstrates the rank obstruction: the paired-block shape
only carries parallel torsion when its block rank is one.  For rank
r >= 2 the per-index equation eq1 equals
max_{q != l} S_q S_l max_q' |W_{l q'}|, which is at least
S_1 S_2 / sqrt(r) because W is unitary.

Run with  python3 demos/normal_forms.py
"""

import numpy as np

from liehermitian import (btpv0_obstruction, c2_report, classify_btp,
                          make_btpv0, make_btpv1)
from liehermitian.codim2 import c2_btp_residuals
from liehermitian.sampling import c2_scramble, rng_for

rng = rng_for(2024, 0)

# --- a generator, scrambled, classified back -------------------------
d = make_btpv1(4, 1.25, np.array([0.3 + 0.4j, -0.2j]))
hidden = c2_scramble(rng, d)

out = classify_btp(hidden)
print("recovered family:", out["family"])
print("recovered |v|^2 parameter:", round(out["params"]["v2"], 10))
print("frame unitarity error:",
      float(np.abs(out["frame"] @ out["frame"].conj().T - np.eye(4)).max()))
print()

# --- rank one works ---------------------------------------------------
d1 = make_btpv0(5, 1, np.array([1.9]), np.array([[np.exp(1.1j)]]),
                np.array([-0.6j, 0.3j]))
p1 = c2_report(d1)["engine"]["properties"]
print("rank-1 paired blocks: torsion parallel =", p1["btp"],
      " balanced =", p1["balanced"], " pluriclosed =", p1["pluriclosed"])

# --- rank two cannot --------------------------------------------------
S2 = np.array([1.5, 0.7])
W2 = np.diag([np.exp(0.3j), np.exp(-0.9j)])
d2 = make_btpv0(5, 2, S2, W2, np.zeros(0, dtype=complex))
res = c2_btp_residuals(d2)
print("\nrank-2 paired blocks: residuals by equation")
for key in sorted(res):
    marker = "  <-- obstruction" if res[key] > 1e-9 else ""
    print(f"  {key:10s} {res[key]:.3e}{marker}")
print("eq1 equals the obstruction max_{q != l} S_q S_l max_q' |W_lq'|:",
      round(res["eq1"], 12), "=", round(btpv0_obstruction(S2, W2), 12))
print("classifier answer:", classify_btp(d2)["family"])
