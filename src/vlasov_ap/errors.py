"""Exception types shared across the solver modules."""


class NonZeroMeanInput(ValueError):
    """A torus operator that requires mean-free input received data with a mean."""


class StabilityFailure(RuntimeError):
    """A time step produced NaN or Inf values; the CFL condition was likely violated."""


class ZeroField(RuntimeError):
    """The CFL estimate is undefined because the advecting field vanishes identically."""


class NonMeanFreeTension(ValueError):
    """The diffusion-scaling stepper needs a tension whose applied field is mean-free in tau."""


class ZeroReference(RuntimeError):
    """A relative error was requested against an identically zero reference field."""
