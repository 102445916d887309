"""A controllable clock shared by the unit tests."""


class FakeClock:
    """A zero-argument clock that moves only when a test moves it.

    Pass it wherever the code under test takes a ``clock`` callable (a
    cycle counter, a wall clock).  Set ``now`` directly to jump, even
    backwards, or call :meth:`advance` to step forward.
    """

    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, delta):
        self.now += delta
