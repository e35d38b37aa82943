"""Exception types shared across the package."""


class MdlpError(Exception):
    """Base class for every error raised by this package."""


class InvalidModulus(MdlpError, ValueError):
    """Modulus smaller than 2 (or otherwise unusable)."""


class NotAUnit(MdlpError, ValueError):
    """Element shares a factor with the modulus; carries the gcd."""

    def __init__(self, g, n, gcd):
        super().__init__(f"{g} is not a unit mod {n} (gcd = {gcd})")
        self.g = g
        self.n = n
        self.gcd = gcd


class BudgetExceeded(MdlpError):
    """A configured work budget ran out before the operation finished."""


class GenerationFailed(BudgetExceeded):
    """Rejection sampling exhausted its attempt budget.

    ``rejections`` maps each rejection stage to the number of draws it
    rejected, witness redraws included, so they can sum to more than
    ``attempts``.
    """

    def __init__(self, rejections, attempts, detail=""):
        self.rejections = dict(rejections)
        self.attempts = attempts
        rejected = sum(self.rejections.values())
        msg = f"no instance found after {attempts} attempts ({rejected} rejected draws)"
        if detail:
            msg += f" ({detail})"
        msg += "; rejected by " + ", ".join(
            f"{stage} {count}" for stage, count in self.rejections.items()
        )
        super().__init__(msg)


class UnsolvableSystem(MdlpError):
    """Simultaneous congruences admit no common solution.

    ``pair`` holds the indices (i, j) of a witnessing unsolvable pair of
    input congruences.
    """

    def __init__(self, pair, c1, c2):
        super().__init__(
            f"congruences {c1} and {c2} (items {pair[0]}, {pair[1]}) conflict"
        )
        self.pair = pair


class IndependenceViolation(MdlpError, ValueError):
    """A generator power lies in the span of the other generators.

    ``witness`` is the offending (generator index, exponent).
    """

    def __init__(self, witness):
        i, v = witness
        super().__init__(f"generator {i} to the power {v} is spanned by the others")
        self.witness = witness


class RankDeficient(MdlpError):
    """The relation matrix does not pin down every base logarithm."""

