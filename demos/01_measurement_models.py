"""Walk through the three measurement channels on one sparse signal.

A hidden binary vector with k ones is observed through an m x n Gaussian
matrix; the channel decides what survives of each projection <A_i, x>:
the full noisy value (linear), only its sign (one-bit), or a coin flip
whose bias follows a logistic curve in it.
"""

import math

import numpy as np

from binsense import (
    Linear,
    Logistic,
    OneBit,
    RngStream,
    gen_sensing_matrix,
    measure,
    random_signal,
    sign_pm1,
)

n, k, m = 64, 5, 2000
signal_stream = RngStream(7, 0)
matrix_stream = RngStream(7, 1)
noise_stream = RngStream(7, 2)

x = random_signal(n, k, signal_stream)
A = gen_sensing_matrix(m, n, matrix_stream)
print(f"signal: n={n}, k={k}, support={x.support}")
print(f"design: {m} x {n} Gaussian matrix, E[(A_i^T x)^2] should be ~k = {k}")
proj = A.entries[:, x.support_array].sum(axis=1)
print(f"  empirical projection power: {np.mean(proj**2):.3f}\n")

for model in (Linear(1.0), OneBit(1.0), Logistic(1.0)):
    y = measure(A, x, model, noise_stream)
    name = type(model).__name__
    print(f"{name}: first six measurements {np.round(y.values[:6], 3)}")

# the same noise stream makes one-bit literally the sign of linear
y_lin = measure(A, x, Linear(1.0), noise_stream)
y_bit = measure(A, x, OneBit(1.0), noise_stream)
print("\nsign(linear) == one-bit, entry for entry:",
      bool(np.array_equal(sign_pm1(y_lin.values), y_bit.values)))

# conditional mean of y given t = <A_i, x> follows the channel's inverse link
print("\ninverse links at t = 1.0:")
for model in (Linear(1.0), OneBit(1.0), Logistic(1.0)):
    print(f"  {type(model).__name__:8s} g(1.0) = {model.inverse_link(1.0):+.4f}")

# the link slope is the per-sample correlation that decoding rides on;
# check the one-bit closed form sqrt(2/pi)/sqrt(k + sigma2) empirically
target = OneBit(1.0).link_slope(k)
j = x.support[0]
empirical = float(np.mean(y_bit.values * A.entries[:, j]))
se = float(np.std(y_bit.values * A.entries[:, j], ddof=1) / math.sqrt(m))
print(f"\nE[y * A_j] for j in support: {empirical:+.4f} "
      f"(closed form {target:.4f}, standard error {se:.4f})")
