"""
================================================================================
DEMO 2: THE XOR EXCHANGE, BIT BY BIT
================================================================================

Same three-node scheme as demo 1. Each multicast group (i, j) lets every
member of j send one XOR of segments the others already hold, so a single
broadcast serves multiple receivers at once. Here the only group is
i = j = {1,2,3} and each node sends exactly one 8-bit signal:

    node 1 sends  v(2,3) XOR v(3,1)
    node 2 sends  v(1,5) XOR v(3,2)
    node 3 sends  v(1,6) XOR v(2,4)

Node 1 never stored files 5 and 6, yet it recovers v(1,5) and v(1,6) by
cancelling the coded values it computed in the map phase. Total traffic:
3 signals x 8 bits = 24 bits = 1/6 of the 6*3*8 value bits in the system.
================================================================================
"""

from d3c import IvaId, build_basic_scheme, make_params
from d3c.engine import default_suite, generate_corpus
from d3c.shuffle import build_signals, decode_node, run_shuffle, signal_trace_records

scheme = build_basic_scheme(make_params(3, 6, 2, 2, T=8))
corpus = generate_corpus(6, 64, 42)
suite = default_suite(8)

print("=" * 80)
print("STEP 1: MAP PHASE (planned values only)")
print("=" * 80)

computed = {}
for k in scheme.storage:
    computed[k] = {
        iva: suite.map_fn(iva.target, iva.file, corpus.files[iva.file - 1])
        for iva in scheme.compute_own[k] + scheme.compute_coded[k]
    }
    print(f"  node {k} computed {len(computed[k])} of the 18 values")

print("\n" + "=" * 80)
print("STEP 2: SIGNALS")
print("=" * 80)

signals = build_signals(scheme, computed)
for record in signal_trace_records(signals):
    print(f"  sender {record['sender']}  group ({record['group_i']}, {record['group_j']})"
          f"  {record['bit_length']} bits  digest {record['payload_digest']}")

check = computed[1][IvaId(2, 3)] ^ computed[1][IvaId(3, 1)]
assert signals[0].payload.value == check
print("\n  node 1's payload equals v(2,3) XOR v(3,1):", signals[0].payload.to_bytes().hex())

print("\n" + "=" * 80)
print("STEP 3: DELIVERY AND DECODING")
print("=" * 80)

delivered, total_bits = run_shuffle(scheme, computed)
print(f"\n  total payload on the channel: {total_bits} bits"
      f"  (load {total_bits}/(6*3*8) = {total_bits / (6 * 3 * 8)})")

values = decode_node(1, scheme, computed[1], delivered[1])
direct_5 = suite.map_fn(1, 5, corpus.files[4])
direct_6 = suite.map_fn(1, 6, corpus.files[5])
print(f"  node 1 decoded v(1,5) = {values[5]:02x}  (direct map: {direct_5:02x})")
print(f"  node 1 decoded v(1,6) = {values[6]:02x}  (direct map: {direct_6:02x})")
assert values[5] == direct_5 and values[6] == direct_6
print("\n  decoded values are bit-identical to direct computation.")
