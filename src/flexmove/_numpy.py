"""numpy, imported on first use, so that jobs computing only closed forms never load it."""


class _Numpy:
    def __getattr__(self, name):  # only for names not yet cached on the instance
        import numpy  # loaded by the first array operation, not by the import
        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()
