"""Fixed reference work that the benchmark times next to the CLI jobs.

It uses no kappa_forge code, so its time tracks only the speed of the host:
interpreter start and the standard-library imports the CLI also makes, a
JSON round trip of a table (as fixed-point files are read), a pure-Python
integer loop (as trial division runs) and big-integer products (as the
elementary symmetric functions grow).
"""

import argparse  # noqa: F401
import fractions  # noqa: F401
import json
import statistics  # noqa: F401

rows = [{"name": f"m{i}", "euler_char": i % 7 - 3, "weights": [i % 97 - 48, i % 89 - 44]}
        for i in range(6000)]
table = json.loads(json.dumps(rows))

x = 0
for i in range(200_000):
    x = (x * 31 + i) % 1_000_003

product = 1
for i in range(1, 5000):
    product *= i * i + 7

print(len(table), x, product.bit_length())
