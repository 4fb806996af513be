"""Pick the rate-maximal RS code for a measured excitation pattern.

Reduces fitted on/off statistics to one per-symbol loss rate p_s, the
stationary off fraction of the on/off gate at symbol granularity (each
run-leaving probability clamped to 1), predicts the post-decode error rate
of every admissible code at that rate, and shows how the choice shifts as
the silent gaps grow.
"""

from rscatter import channel, codesearch, traffic
from rscatter.errors import InfeasibleError


def main():
    rate = 1e6  # backscatter symbols/second
    on = traffic.ParetoParams(shape=2.0, scale_min=170.665)  # mean 341.33 us

    print(f"{'mean off (us)':>14} {'p_s':>8} {'chosen code':>12} "
          f"{'rate':>6} {'predicted p_e':>14}")
    for mean_off in (5.0, 20.0, 40.0, 60.0, 90.0):
        off = traffic.ParetoParams(shape=3.0, scale_min=mean_off * 2 / 3)
        stats = traffic.TrafficStats(off=off, on=on)
        p_s = channel.symbol_error_rate(stats, rate)
        try:
            out = codesearch.optimize_for_ps(p_s)
        except InfeasibleError as exc:
            print(f"{mean_off:14.1f} {p_s:8.4f} {'-':>12} {'-':>6}  {exc}")
            continue
        print(f"{mean_off:14.1f} {p_s:8.4f} "
              f"({out.code.n:>3},{out.code.k:>3}) {out.rate:6.3f} "
              f"{out.predicted_pe:14.2e}")

    print()
    print("per-length shortlist at mean off = 20 us:")
    stats = traffic.TrafficStats(
        off=traffic.ParetoParams(3.0, 20 * 2 / 3), on=on
    )
    out = codesearch.optimize_for_ps(channel.symbol_error_rate(stats, rate))
    for n, k, pe in out.feasible_alternatives:
        marker = " <- selected" if (n, k) == (out.code.n, out.code.k) else ""
        print(f"  ({n:>3},{k:>3})  rate {k / n:.3f}  p_e {pe:.2e}{marker}")


if __name__ == "__main__":
    main()
